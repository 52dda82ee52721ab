package bsdglue

import (
	"oskit/internal/hw"
	"oskit/internal/percpu"
)

// Per-CPU front over the BSD kernel malloc (E16).
//
// The mbuf layer's two hot sizes — MSIZE small mbufs and MCLBYTES
// clusters — otherwise serialize every CPU on mallocLock (rank 81).
// EnableCPUCache fronts an exact set of sizes with percpu.Cache
// magazines holding whole naturally-aligned blocks as the backing
// allocator produced them, so property 1 (natural alignment — the
// cluster refcount table's address arithmetic depends on it) survives
// caching, and a cached hit/stash touches one CPU-local lock.
//
// The discipline mirrors the QuickPool magazine front (libc/magazine.go):
// one fault-hook decision per Alloc of a cached size, read through an
// atomic mirror with no locks held, before the cache is consulted; a
// miss falls to the bucket path without a second decision; every user
// operation charges malloc.allocs/malloc.frees exactly once (cached
// traffic additionally shows as malloc.cpu_hits); and DrainCPUCache
// frees every cached block back to the buckets uncounted, so the
// bytes-live ledger and the allocs/frees pair balance exactly as if the
// front never existed.  Blocks parked in the front remain "live" in
// malloc.bytes_live until drain — they are allocated pages from the
// allocator's point of view.
//
// The front's per-CPU and depot locks (percpu, ranks 76/77) sit below
// mallocLock (81) and above the mbuf cluster lock (70), matching the
// entry paths: MClGet/mget consult the front bare, and the cluster
// refcount release frees clusters while holding mclMu.
type cpuFront struct {
	sizes  []uint32
	caches []*percpu.Cache[cachedBlock]
}

// cachedBlock is one whole bucket block held by the front.
type cachedBlock struct {
	addr hw.PhysAddr
	buf  []byte
}

// frontRounds is the per-magazine capacity of the malloc front.
const frontRounds = 16

// cacheFor returns the cache fronting exactly size, or nil.  Only exact
// matches are cached: the callers allocate their hot structures at
// fixed power-of-two sizes, and exactness keeps a cached block's bucket
// class identical to the request's.
func (f *cpuFront) cacheFor(size uint32) *percpu.Cache[cachedBlock] {
	for i, s := range f.sizes {
		if s == size {
			return f.caches[i]
		}
	}
	return nil
}

// EnableCPUCache fronts the given exact block sizes (powers of two, at
// most PageSize) with per-CPU magazine caches.  Call at configuration
// time on multi-CPU machines; a single-CPU machine refuses, keeping the
// default path byte-identical.  Idempotent; panics on a size the bucket
// allocator would not serve whole.
func (m *Malloc) EnableCPUCache(sizes ...uint32) {
	machine := m.g.env.Machine
	ncpu := machine.CPUs()
	if ncpu <= 1 || m.front.Load() != nil || len(sizes) == 0 {
		return
	}
	f := &cpuFront{}
	curCPU := machine.Intr.CurCPU
	for _, size := range sizes {
		if size == 0 || size > PageSize || size&(size-1) != 0 {
			m.g.env.Panic("bsdglue: EnableCPUCache(%d): not a whole bucket size", size)
			return
		}
		f.sizes = append(f.sizes, size)
		f.caches = append(f.caches, percpu.New[cachedBlock](ncpu, frontRounds, curCPU))
	}
	if m.statsSet != nil {
		m.scCPUHits = m.statsSet.Counter("malloc.cpu_hits")
		m.scAllocs.Shard(ncpu)
		m.scFrees.Shard(ncpu)
		m.scCPUHits.Shard(ncpu)
	}
	m.front.Store(f)
}

// CPUCacheEnabled reports whether the per-CPU front is active.
func (m *Malloc) CPUCacheEnabled() bool { return m.front.Load() != nil }

// CPUCached reports how many blocks the front currently holds (tests,
// drain ledgers).
func (m *Malloc) CPUCached() int {
	f := m.front.Load()
	if f == nil {
		return 0
	}
	n := 0
	for _, c := range f.caches {
		n += c.Cached()
	}
	return n
}

// DrainCPUCache frees every front-cached block back to the buckets.
// The stashes that parked these blocks already counted as malloc.frees,
// so the backing frees here are uncounted — each user operation charges
// exactly once — while the bytes-live ledger drops as the pages come
// home.  Called on Halt; the front stays enabled and usable.
func (m *Malloc) DrainCPUCache() {
	f := m.front.Load()
	if f == nil {
		return
	}
	for _, c := range f.caches {
		c.Drain(func(b cachedBlock) { m.free(b.addr, false) })
	}
}

// allocCached is Alloc for a front-cached size: one hook decision, no
// locks held, then the CPU-local cache; a miss falls through to the
// bucket path with the decision already consumed.
func (m *Malloc) allocCached(c *percpu.Cache[cachedBlock], size uint32) (hw.PhysAddr, []byte, bool) {
	if h := m.hookA.Load(); h != nil && (*h)(size) {
		m.scFails.Inc()
		return 0, nil, false
	}
	if b, cpu, ok := c.Get(); ok {
		m.scAllocs.IncOn(cpu)
		m.scCPUHits.IncOn(cpu)
		return b.addr, b.buf, true
	}
	s := m.g.Splhigh()
	defer m.g.Splx(s)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocLocked(size)
}

// FreeSized releases a block whose caller knows its allocated size —
// the mbuf paths always do — letting a front-cached size stash the
// block CPU-locally without the table lookup Free needs.  Exactly
// equivalent to Free when the front is off or the size is not cached.
func (m *Malloc) FreeSized(addr hw.PhysAddr, size uint32) {
	if f := m.front.Load(); f != nil {
		if c := f.cacheFor(size); c != nil {
			buf := m.g.env.Machine.Mem.MustSlice(addr, size)
			if cpu, ok := c.Put(cachedBlock{addr, buf}); ok {
				m.scFrees.IncOn(cpu)
				return
			}
		}
	}
	m.Free(addr)
}
