package linuxdev

import (
	"oskit/internal/com"
	"oskit/internal/linux/legacy"
	"oskit/internal/percpu"
)

// Per-CPU front over the fast-path kmalloc route (E16).
//
// With EnableFastPath bound to a QuickPool, every packet-sized kmalloc
// still serializes on klMu (rank 75) before it even reaches the pool —
// the donor exclusion is the hot lock, not the allocator behind it.
// EnableAllocCache fronts that route with percpu.Cache magazines of
// whole *legacy.KBuf records, one cache per power-of-two class in
// [16, 4096] (the pool's own classes), so a cached hit or stash touches
// one CPU-local lock and skips klMu entirely.
//
// The discipline mirrors the QuickPool magazine front (libc/magazine.go)
// and the BSD malloc front (freebsd/glue/cpucache.go):
//
//   - one fault-hook decision per Kmalloc of a fronted size, read
//     through an atomic mirror with no locks held, before the cache is
//     consulted; a miss goes straight to the frozen pool binding with
//     the decision already consumed, and sizes the front does not serve
//     (> 4096 bytes, or any size when the front is off) ride the stock
//     closure with its under-lock hook consult — either way exactly one
//     decision per user operation, in user-operation order;
//   - every user operation charges kmalloc.allocs/kmalloc.frees exactly
//     once (cached traffic additionally shows as kmalloc.cpu_hits);
//   - DrainAllocCache returns every cached block to the pool uncounted
//     in the kmalloc pair — the stash that parked it already counted as
//     a kfree — while the pool's own qp.frees charge balances the
//     qp.allocs its AllocMem charged, so both ledgers quiesce exactly
//     as if the front never existed.
//
// Class consistency: a pool block's Data slice is 3-index-sliced to its
// exact power-of-two capacity, so cap(Data) names the pool class.  The
// stash gate admits only Pooled KBufs with such a cap; a hit reslices
// Data to the new request's length, which rounds back up to the same
// class, so the eventual pool.FreeMem(addr, len(Data)) frees into the
// class the block came from no matter how many reuses intervened.
//
// The front freezes its own pool reference at enable time (with its own
// COM ref), so cache hits and misses never touch the klMu-guarded
// g.pool binding.  The percpu locks (ranks 76/77) are leaves here taken
// with no donor lock held.
type kmFront struct {
	pool   com.Allocator
	caches [kmFrontClasses]*percpu.Cache[*legacy.KBuf]
}

const (
	kmFrontMinShift = 4 // 16-byte minimum class, the pool's own floor
	kmFrontClasses  = 9 // 16 .. 4096
	kmFrontMax      = 4096
	kmFrontRounds   = 16
)

// kmCacheClass maps a size to its front class, or -1.
func kmCacheClass(size uint32) int {
	if size == 0 || size > kmFrontMax {
		return -1
	}
	bs := uint32(1) << kmFrontMinShift
	for i := 0; i < kmFrontClasses; i++ {
		if size <= bs {
			return i
		}
		bs <<= 1
	}
	return -1
}

// cacheForBlock returns the cache a freed KBuf stashes into, or nil if
// the block is not a whole pool-class block (the stash gate).
func (f *kmFront) cacheForBlock(b *legacy.KBuf) *percpu.Cache[*legacy.KBuf] {
	c := uint32(cap(b.Data))
	if c < 1<<kmFrontMinShift || c > kmFrontMax || c&(c-1) != 0 {
		return nil
	}
	return f.caches[kmCacheClass(c)]
}

// EnableAllocCache fronts the fast-path kmalloc route with per-CPU
// magazine caches.  Requires a multi-CPU machine and an EnableFastPath
// pool binding (the native-kmalloc monolithic baseline is never
// fronted); refuses otherwise, keeping the default path byte-identical.
// Idempotent.  Call at configuration time, before traffic.
func (g *Glue) EnableAllocCache() {
	machine := g.env.Machine
	ncpu := machine.CPUs()
	if ncpu <= 1 || g.front.Load() != nil {
		return
	}
	unlock := g.kmLock()
	pool := g.pool //oskit:allow guarded -- under g.kmLock(): klMu in SMP mode, interrupt exclusion (cli) on the uniprocessor default; the lock wrapper is opaque to the tracker
	native := g.nativeKmalloc
	unlock()
	if pool == nil || native || !g.fastpath.Load() {
		return
	}
	pool.AddRef()
	f := &kmFront{pool: pool}
	curCPU := machine.Intr.CurCPU
	for i := range f.caches {
		f.caches[i] = percpu.New[*legacy.KBuf](ncpu, kmFrontRounds, curCPU)
	}
	if g.statsSet != nil {
		g.scKmCPUHits = g.statsSet.Counter("kmalloc.cpu_hits")
		g.scKmallocs.Shard(ncpu)
		g.scKfrees.Shard(ncpu)
		g.scKmCPUHits.Shard(ncpu)
	}
	g.front.Store(f)
}

// AllocCacheEnabled reports whether the per-CPU kmalloc front is active.
func (g *Glue) AllocCacheEnabled() bool { return g.front.Load() != nil }

// AllocCached reports how many KBufs the front currently holds (tests,
// drain ledgers).
func (g *Glue) AllocCached() int {
	f := g.front.Load()
	if f == nil {
		return 0
	}
	n := 0
	for _, c := range f.caches {
		n += c.Cached()
	}
	return n
}

// DrainAllocCache returns every front-cached block to the pool.  The
// kfrees that parked these blocks were already counted at stash time,
// so nothing moves in the kmalloc pair; the pool-side frees balance the
// allocs that produced the blocks.  Called on Halt; the front stays
// enabled and usable.
func (g *Glue) DrainAllocCache() {
	f := g.front.Load()
	if f == nil {
		return
	}
	for _, c := range f.caches {
		c.Drain(func(b *legacy.KBuf) {
			f.pool.FreeMem(b.Addr, uint32(len(b.Data)))
		})
	}
}

// kmallocCached is Kmalloc for a front-served size: one hook decision,
// no locks held, then the CPU-local cache; a miss goes to the frozen
// pool with the decision already consumed.
func (g *Glue) kmallocCached(f *kmFront, size uint32) *legacy.KBuf {
	if h := g.kmHookA.Load(); h != nil && (*h)(size) {
		g.scKmFails.Inc()
		return nil
	}
	if b, cpu, ok := f.caches[kmCacheClass(size)].Get(); ok {
		b.Data = b.Data[:size]
		g.scKmallocs.IncOn(cpu)
		g.scKmCPUHits.IncOn(cpu)
		return b
	}
	if addr, buf, ok := f.pool.AllocMem(size); ok {
		g.scKmallocs.Inc()
		return &legacy.KBuf{Addr: addr, Data: buf, Pooled: true}
	}
	g.scKmFails.Inc()
	return nil
}
