package hw

// Per-CPU identity for allocator front caches (E16).
//
// CurCPU is the one shard key: exact for interrupt dispatcher goroutines
// (a handler runs on its line's affinity CPU) and a stable hash of GoID
// for process-level goroutines, which the simulator pins to no CPU.  It
// writes no shared state — one register read, a scan of the machine's
// dispatcher identities, a mix — so it is cheap enough for every
// allocation and does not slow down as CPUs are added (priced, next to
// the mutex pair it steers around, by BenchmarkCPUIdentity; EXPERIMENTS.md
// E18 has the numbers).  The key only steers locality: every magazine
// slot is locked, so two threads hashing to one slot cost contention,
// never correctness.

// CurCPU reports the CPU the calling goroutine is identified with: the
// owning dispatch context for interrupt dispatcher goroutines, otherwise
// a stable hash of the goroutine's identity across the machine's CPUs.
func (ic *IntrController) CurCPU() int {
	n := len(ic.cpus)
	if n <= 1 {
		return 0
	}
	id := goid()
	if c := ic.dispatcherCPU(id); c != nil {
		return c.index
	}
	return int(mixGoID(id) % uint64(n))
}

// mixGoID is a splitmix64-style finalizer so neighbouring identities
// (equally aligned addresses, or consecutive numbers on the fallback
// port) spread across CPUs instead of clustering on a few slots.
func mixGoID(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 33
	id *= 0xc4ceb9fe1a85ec53
	id ^= id >> 33
	return id
}
