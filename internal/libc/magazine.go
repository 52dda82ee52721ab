package libc

import (
	"oskit/internal/hw"
	"oskit/internal/percpu"
)

// Per-CPU magazine front over QuickPool (E16).
//
// On a multi-CPU machine every allocation otherwise funnels through the
// pool's single poolLock (rank 82) — exactly the §6.2.10 "fast allocator"
// turned serialization stall.  EnableMagazines fronts each size class
// with a percpu.Cache: the common alloc/free touches one CPU-local
// magazine lock, the shared free lists only on magazine misses and
// overflows, and the depot only on magazine exchange.
//
// Invariants the front preserves:
//
//   - One fault-hook decision per user Alloc, in call order, before the
//     magazine is consulted — the seed-reproducible decision stream
//     (qp.send/qp.recv) is identical to the global-lock path's, and
//     magazine state never shifts it.  The hook is read through an
//     atomic mirror with no locks held (the lockhook analyzer's
//     hook-under-mutex hazard class stays empty).
//
//   - qp.allocs/qp.frees charge once per user operation whether served
//     by a magazine or the shared lists, so every Imbalances/AllocPairs
//     soak invariant is front-agnostic; magazine traffic is additionally
//     visible as qp.magazine_hits.  The counters are registered and
//     sharded only here, so a pool that never enables magazines — the
//     default configuration — snapshots byte-identical rows.
//
//   - DrainMagazines (Halt) pushes every cached block back onto the
//     shared lists with no counter movement: Stats() accounting and the
//     slab ledger balance exactly as if magazines never existed.
type poolMagazines struct {
	caches [maxClass]*percpu.Cache[poolBlock]
}

// magazineRounds is the per-magazine capacity of the QuickPool front.
const magazineRounds = 16

// EnableMagazines fronts the pool's size classes with per-CPU magazine
// caches.  Call at configuration time, before traffic, on multi-CPU
// machines; on a single-CPU machine it is a no-op (the global lock is
// uncontended there, and the default configuration must stay
// byte-identical).  Enabling is idempotent.
func (p *QuickPool) EnableMagazines() {
	machine := p.c.env.Machine
	ncpu := machine.CPUs()
	if ncpu <= 1 || p.mags.Load() != nil {
		return
	}
	m := &poolMagazines{}
	curCPU := machine.Intr.CurCPU
	for cls := range m.caches {
		m.caches[cls] = percpu.New[poolBlock](ncpu, magazineRounds, curCPU)
	}
	if p.statsSet != nil {
		p.scMagHits = p.statsSet.Counter("qp.magazine_hits")
		p.scAllocs.Shard(ncpu)
		p.scFrees.Shard(ncpu)
		p.scMagHits.Shard(ncpu)
	}
	p.mags.Store(m)
}

// enableMagazinesKeyed is the test seam: magazines over an explicit CPU
// count and shard-key function, so seeded interleaving tests drive the
// cross-CPU paths deterministically.
func (p *QuickPool) enableMagazinesKeyed(ncpu int, cpuFn func() int) {
	m := &poolMagazines{}
	for cls := range m.caches {
		m.caches[cls] = percpu.New[poolBlock](ncpu, magazineRounds, cpuFn)
	}
	if p.statsSet != nil {
		p.scMagHits = p.statsSet.Counter("qp.magazine_hits")
		p.scAllocs.Shard(ncpu)
		p.scFrees.Shard(ncpu)
		p.scMagHits.Shard(ncpu)
	}
	p.mags.Store(m)
}

// MagazinesEnabled reports whether the per-CPU front is active.
func (p *QuickPool) MagazinesEnabled() bool { return p.mags.Load() != nil }

// MagazineCached reports how many blocks the front currently holds
// across every CPU magazine and the depot (tests, drain ledgers).
func (p *QuickPool) MagazineCached() int {
	m := p.mags.Load()
	if m == nil {
		return 0
	}
	n := 0
	for _, c := range m.caches {
		n += c.Cached()
	}
	return n
}

// DrainMagazines returns every magazine-cached block to the shared free
// lists.  Called on Halt so soak ledgers balance; the pool remains
// usable (and the front stays enabled) afterwards.
func (p *QuickPool) DrainMagazines() {
	m := p.mags.Load()
	if m == nil {
		return
	}
	for cls, cache := range m.caches {
		var blocks []poolBlock
		cache.Drain(func(b poolBlock) { blocks = append(blocks, b) })
		if len(blocks) == 0 {
			continue
		}
		p.mu.Lock()
		p.classes[cls] = append(p.classes[cls], blocks...)
		p.mu.Unlock()
	}
}

// allocMagazine is Alloc with the per-CPU front engaged.  The fault hook
// fires exactly once, first, with no locks held; a magazine hit then
// never touches shared state, and a miss takes one block from the shared
// lists (refilling a slab if needed) without a second hook decision.
func (p *QuickPool) allocMagazine(m *poolMagazines, size uint32) (hw.PhysAddr, []byte, bool) {
	if h := p.hookA.Load(); h != nil && (*h)(size) {
		p.scFails.Inc()
		return 0, nil, false
	}
	cls := classFor(size)
	if cls < 0 {
		addr, buf, ok := p.c.Malloc(size)
		if !ok {
			p.scFails.Inc()
			return 0, nil, false
		}
		p.scAllocs.Inc()
		return addr, buf, true
	}
	if b, cpu, ok := m.caches[cls].Get(); ok {
		p.scAllocs.IncOn(cpu)
		p.scMagHits.IncOn(cpu)
		return b.addr, b.buf[:size], true
	}
	p.mu.Lock()
	hit := len(p.classes[cls]) > 0
	if !hit && !p.refill(cls) {
		p.mu.Unlock()
		p.scFails.Inc()
		return 0, nil, false
	}
	list := p.classes[cls]
	b := list[len(list)-1]
	p.classes[cls] = list[:len(list)-1]
	p.mu.Unlock()
	p.scAllocs.Inc()
	if hit {
		p.scHits.Inc()
	}
	return b.addr, b.buf[:size], true
}

// freeMagazine is Free with the per-CPU front engaged: stash on the
// caller's CPU magazine; overflow (depot at capacity) falls back to the
// shared lists.
func (p *QuickPool) freeMagazine(m *poolMagazines, addr hw.PhysAddr, size uint32) {
	cls := classFor(size)
	if cls < 0 {
		p.c.Free(addr)
		p.scFrees.Inc()
		return
	}
	blockSize := uint32(1) << (minClassShift + cls)
	buf, err := p.c.env.Machine.Mem.Slice(addr, blockSize)
	if err != nil {
		p.c.env.Panic("libc: QuickPool.Free(%#x): %v", addr, err)
		return
	}
	if cpu, ok := m.caches[cls].Put(poolBlock{addr, buf}); ok {
		p.scFrees.IncOn(cpu)
		return
	}
	p.mu.Lock()
	p.classes[cls] = append(p.classes[cls], poolBlock{addr, buf})
	p.mu.Unlock()
	p.scFrees.Inc()
}
