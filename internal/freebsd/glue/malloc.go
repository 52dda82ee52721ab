package bsdglue

import (
	"oskit/internal/hw"
	"oskit/internal/stats"
)

// BSD kernel malloc (paper §4.7.7).  The donor allocator is "particularly
// clever in a number of respects":
//
//  1. all blocks are naturally aligned according to their size (a
//     65–128-byte block sits on a 128-byte boundary);
//  2. exact power-of-two sizes are allocated with no wasted space;
//  3. the allocator itself tracks block sizes, so free() takes no size.
//
// Any two are easy; all three at once require the per-page size table
// (BSD's kmemusage[]), which in BSD covered a virtual range reserved at
// startup.  The kit cannot reserve address space — components get memory
// wherever the client OS gives it — so this glue reproduces the OSKit's
// "imperfect but practical" solution verbatim: it *watches the memory
// blocks returned by the client* and dynamically re-allocates and grows
// the table so it always covers every address the allocator has ever
// seen.  Densely packed client memory keeps the table small; widely
// dispersed memory makes it balloon — exactly the failure mode the paper
// concedes, measured by the BSDMallocDispersion ablation bench.
//
// Several donor subsystems (the mbuf cluster pool, the clist code) depend
// on all three properties; the kit's mbuf layer indexes its cluster
// reference counts by address arithmetic that is only sound because of
// property 1.

// Page geometry of the donor allocator.
const (
	PageSize  = 4096
	PageShift = 12

	minBucketShift = 4 // 16-byte minimum block
	maxBucketShift = PageShift
	numBuckets     = maxBucketShift - minBucketShift + 1
)

// Table entry encodings.
const (
	kuFree    uint16 = 0      // page unknown / not ours
	kuLarge   uint16 = 0x8000 // first page of a large run; low bits = page count
	kuLargeCo uint16 = 0x4000 // continuation page of a large run
)

// Malloc is one component's BSD kernel allocator instance.
type Malloc struct {
	g *Glue

	// mu guards the buckets, the page table, and the live-byte ledger.
	// On a uniprocessor the Splhigh exclusion below already serializes
	// callers and the lock is uncontended; on SMP (where spl is a no-op)
	// it is the allocator's real exclusion.
	mu mallocLock

	// kmemusage: one entry per page from basePage, grown on demand.
	basePage uint32   //oskit:guardedby mu
	table    []uint16 //oskit:guardedby mu
	growths  int      //oskit:guardedby mu

	// buckets[i] is the free list for blocks of size 1<<(i+minBucketShift).
	buckets [numBuckets][]uint32 //oskit:guardedby mu

	allocated uint64 //oskit:guardedby mu  live bytes, for statistics

	// com.Stats export handles (nil-safe; see initStats).
	scAllocs *stats.Counter
	scFrees  *stats.Counter
	scFails  *stats.Counter
	scLive   *stats.Gauge
	scTable  *stats.Gauge
}

func newMalloc(g *Glue) *Malloc { return &Malloc{g: g} }

// initStats resolves the allocator's statistics handles in set.  Updates
// happen under splhigh on allocation hot paths, so the handles are
// pre-resolved here and each update is one atomic operation.
func (m *Malloc) initStats(set *stats.Set) {
	m.scAllocs = set.Counter("malloc.allocs")
	m.scFrees = set.Counter("malloc.frees")
	m.scFails = set.Counter("malloc.failures")
	m.scLive = set.Gauge("malloc.bytes_live")
	m.scTable = set.Gauge("malloc.table_bytes")
}

// bucketFor returns the bucket index whose block size holds size.
func bucketFor(size uint32) (idx int, blockSize uint32) {
	bs := uint32(1) << minBucketShift
	for i := 0; i < numBuckets; i++ {
		if size <= bs {
			return i, bs
		}
		bs <<= 1
	}
	return -1, 0
}

// Alloc allocates size bytes with the three BSD properties.  Callable at
// interrupt level (the mbuf code does).  It fails only when the client
// has no page to give (env.MemAlloc, where fault injection fails it too).
func (m *Malloc) Alloc(size uint32) (hw.PhysAddr, []byte, bool) {
	if size == 0 {
		return 0, nil, false
	}
	s := m.g.Splhigh()
	defer m.g.Splx(s)
	m.mu.Lock()
	defer m.mu.Unlock()
	if size > PageSize {
		return m.allocLarge(size)
	}
	idx, bs := bucketFor(size)
	if len(m.buckets[idx]) == 0 && !m.refill(idx, bs) {
		m.scFails.Inc()
		return 0, nil, false
	}
	list := m.buckets[idx]
	addr := list[len(list)-1]
	m.buckets[idx] = list[:len(list)-1]
	m.allocated += uint64(bs)
	m.scAllocs.Inc()
	m.scLive.Set(int64(m.allocated))
	return addr, m.g.env.Machine.Mem.MustSlice(addr, bs), true
}

// Free releases a block by address alone — property 3.
func (m *Malloc) Free(addr hw.PhysAddr) {
	s := m.g.Splhigh()
	defer m.g.Splx(s)
	m.mu.Lock()
	defer m.mu.Unlock()

	page := addr >> PageShift
	entry := m.lookup(page)
	switch {
	case entry&kuLarge != 0:
		npages := uint32(entry &^ kuLarge)
		for i := uint32(0); i < npages; i++ {
			m.set(page+i, kuFree)
		}
		m.g.env.MemFree(page<<PageShift, npages*PageSize)
		m.allocated -= uint64(npages) * PageSize
	case entry >= 1 && entry <= numBuckets:
		idx := int(entry - 1)
		bs := uint32(1) << (idx + minBucketShift)
		if addr&(bs-1) != 0 {
			m.g.env.Panic("bsdglue: free of misaligned block %#x (size %d)", addr, bs)
			return
		}
		m.buckets[idx] = append(m.buckets[idx], addr)
		m.allocated -= uint64(bs)
	default:
		m.g.env.Panic("bsdglue: free of untracked address %#x", addr)
		return
	}
	m.scFrees.Inc()
	m.scLive.Set(int64(m.allocated))
}

// SizeOf reports the allocated size of a live block — the exposed form
// of property 3.
func (m *Malloc) SizeOf(addr hw.PhysAddr) (uint32, bool) {
	s := m.g.Splhigh()
	defer m.g.Splx(s)
	m.mu.Lock()
	defer m.mu.Unlock()
	entry := m.lookup(addr >> PageShift)
	switch {
	case entry&kuLarge != 0:
		return uint32(entry&^kuLarge) * PageSize, true
	case entry >= 1 && entry <= numBuckets:
		return 1 << (uint(entry-1) + minBucketShift), true
	}
	return 0, false
}

// allocLarge takes whole pages from the client.
func (m *Malloc) allocLarge(size uint32) (hw.PhysAddr, []byte, bool) {
	npages := (size + PageSize - 1) >> PageShift
	addr, buf, ok := m.g.env.MemAlloc(npages*PageSize, 0, PageSize)
	if !ok {
		m.scFails.Inc()
		return 0, nil, false
	}
	page := addr >> PageShift
	m.ensure(page)
	m.ensure(page + npages - 1)
	m.set(page, kuLarge|uint16(npages))
	for i := uint32(1); i < npages; i++ {
		m.set(page+i, kuLargeCo)
	}
	m.allocated += uint64(npages) * PageSize
	m.scAllocs.Inc()
	m.scLive.Set(int64(m.allocated))
	return addr, buf[:size], true
}

// refill carves one fresh client page into bucket blocks.  Natural
// alignment (property 1) falls out of the page being page-aligned and
// the block size dividing the page; no space is wasted on headers
// (property 2) because the size lives in the table, not the block.
func (m *Malloc) refill(idx int, blockSize uint32) bool {
	addr, _, ok := m.g.env.MemAlloc(PageSize, 0, PageSize)
	if !ok {
		return false
	}
	page := addr >> PageShift
	m.ensure(page)
	m.set(page, uint16(idx+1))
	for off := uint32(0); off < PageSize; off += blockSize {
		m.buckets[idx] = append(m.buckets[idx], addr+off)
	}
	return true
}

// ensure grows the table to cover page — the OSKit's dynamic re-grow of
// the allocation table (§4.7.7).
func (m *Malloc) ensure(page uint32) {
	if m.table == nil {
		m.basePage = page
		m.table = make([]uint16, 1)
		m.growths++
		return
	}
	if page < m.basePage {
		shift := m.basePage - page
		grown := make([]uint16, uint32(len(m.table))+shift)
		copy(grown[shift:], m.table)
		m.table = grown
		m.basePage = page
		m.growths++
		return
	}
	if idx := page - m.basePage; idx >= uint32(len(m.table)) {
		grown := make([]uint16, idx+1)
		copy(grown, m.table)
		m.table = grown
		m.growths++
	}
}

func (m *Malloc) lookup(page uint32) uint16 {
	if m.table == nil || page < m.basePage {
		return kuFree
	}
	idx := page - m.basePage
	if idx >= uint32(len(m.table)) {
		return kuFree
	}
	return m.table[idx]
}

func (m *Malloc) set(page uint32, v uint16) {
	m.ensure(page)
	m.table[page-m.basePage] = v
	m.scTable.Set(int64(len(m.table) * 2))
}

// TableBytes reports the allocation table's current footprint: the cost
// of the address-watching heuristic.
func (m *Malloc) TableBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.table) * 2
}

// Growths reports how many times the table has been re-grown.
func (m *Malloc) Growths() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.growths
}

// LiveBytes reports currently allocated bytes.
func (m *Malloc) LiveBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocated
}

// EnsureForTest grows the allocation table to cover addr, the way a
// large allocation landing there would; a hook for the repository's
// dispersion ablation bench.
func EnsureForTest(m *Malloc, addr hw.PhysAddr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensure(addr >> PageShift)
}
