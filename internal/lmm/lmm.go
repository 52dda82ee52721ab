// Package lmm is the OSKit's list-based memory manager (paper §3.3).
//
// The LMM provides primitives for managing allocation of either physical
// or virtual memory, in kernel or user-level code, with support for
// multiple "types" of memory in one pool and for allocations with type,
// size, alignment, and address-bounds constraints — e.g. a PC device
// driver that must have buffer memory below the 16 MB ISA DMA limit.
//
// A pool (Arena) contains regions; each region covers an address range and
// carries client-defined flag bits (its memory "type") and a priority.
// Allocation requests name required flags and search regions from highest
// to lowest priority, skipping regions that lack any requested flag.  This
// lets a client give ordinary memory high priority and scarce DMA-able
// memory low priority, so DMA memory is consumed only when demanded.
//
// In keeping with the OSKit's open-implementation philosophy (§4.6), the
// free list is inspectable (FindFree, Dump) and regions may be examined
// directly; clients that only need malloc-like service can ignore all of
// that.
package lmm

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"oskit/internal/stats"
)

// Flags is a set of client-defined memory-type bits attached to regions.
// An allocation with flags f is satisfied only from regions whose flag set
// contains every bit in f.
type Flags uint32

// PageSize is the page granularity of AllocPage (x86 pages).
const PageSize = 4096

// block is one free extent [addr, addr+size).
type block struct {
	addr, size uint32
}

// Region is one contiguous address range under management.
type Region struct {
	min, max uint32 // [min, max)
	flags    Flags
	pri      int

	free      []block // sorted by addr, coalesced, non-overlapping
	freeBytes uint32
}

// Flags returns the region's memory-type bits.
func (r *Region) Flags() Flags { return r.flags }

// Avail returns the free byte count in the region.
func (r *Region) Avail() uint32 { return r.freeBytes }

// Arena is one memory pool.  The free lists are guarded by an internal
// mutex: on a uniprocessor the kit's execution model (§4.5) already
// serializes allocation, but one arena backs several components (BSD
// malloc, Linux kmalloc, the QuickPool refill path), and on an SMP
// machine those run concurrently.  Clients needing interrupt-level
// *exclusion* still wrap it (as the Linux glue does for donor kmalloc
// calls with interrupts disabled); the mutex only protects the lists.
type Arena struct {
	mu      sync.Mutex
	regions []*Region // sorted by priority descending, then address

	// Optional com.Stats handles (see AttachStats).  All updates are
	// nil-safe, so an unattached arena pays one branch per operation.
	scAllocs *stats.Counter
	scFrees  *stats.Counter
	scFails  *stats.Counter
	scLive   *stats.Gauge
}

// NewArena creates an empty pool.
func NewArena() *Arena { return &Arena{} }

// AttachStats resolves the arena's statistics in set ("lmm.*" names).
// Attaching is optional — the kernel support library attaches its
// physical-memory arena; private pools typically don't bother.
func (a *Arena) AttachStats(set *stats.Set) {
	a.scAllocs = set.Counter("lmm.allocs")
	a.scFrees = set.Counter("lmm.frees")
	a.scFails = set.Counter("lmm.failures")
	a.scLive = set.Gauge("lmm.bytes_live")
}

// AddRegion introduces the address range [addr, addr+size) with the given
// type flags and priority.  The range starts fully *allocated*; memory
// becomes available via AddFree.  (This mirrors lmm_add_region /
// lmm_add_free: the kernel support library registers all of physical
// memory as regions, then frees exactly the parts not occupied by the
// kernel and boot modules.)  Regions must not overlap.
func (a *Arena) AddRegion(addr, size uint32, flags Flags, pri int) error {
	if size == 0 {
		return fmt.Errorf("lmm: empty region")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	max := addr + size
	if max < addr {
		return fmt.Errorf("lmm: region wraps address space")
	}
	for _, r := range a.regions {
		if addr < r.max && r.min < max {
			return fmt.Errorf("lmm: region [%#x,%#x) overlaps [%#x,%#x)", addr, max, r.min, r.max)
		}
	}
	r := &Region{min: addr, max: max, flags: flags, pri: pri}
	a.regions = append(a.regions, r)
	sort.SliceStable(a.regions, func(i, j int) bool {
		if a.regions[i].pri != a.regions[j].pri {
			return a.regions[i].pri > a.regions[j].pri
		}
		return a.regions[i].min < a.regions[j].min
	})
	return nil
}

// AddFree donates [addr, addr+size) to the free lists of whatever regions
// contain it; parts outside any region are ignored (lmm_add_free
// semantics, convenient when freeing a memory map around reserved holes).
func (a *Arena) AddFree(addr, size uint32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.regions {
		lo, hi := addr, addr+size
		if lo < r.min {
			lo = r.min
		}
		if hi > r.max {
			hi = r.max
		}
		if lo < hi {
			r.insertFree(lo, hi-lo)
		}
	}
}

// Free returns a block previously obtained from Alloc*.  Freeing memory
// that is already free panics: like the C LMM scribbling its free list
// through corrupt memory, a double free is a fatal client bug (and the
// memdebug wrapper exists to catch it gracefully).
func (a *Arena) Free(addr, size uint32) {
	if size == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.regionOf(addr)
	if r == nil || addr+size > r.max {
		panic(fmt.Sprintf("lmm: Free(%#x, %#x) outside any region", addr, size))
	}
	r.insertFree(addr, size)
	a.scFrees.Inc()
	a.scLive.Add(-int64(size))
}

// Alloc allocates size bytes from the highest-priority region carrying
// all the requested flags.  ok is false when no region can satisfy it.
func (a *Arena) Alloc(size uint32, flags Flags) (addr uint32, ok bool) {
	return a.AllocGen(size, flags, 0, 0, 0, ^uint32(0))
}

// AllocAligned allocates size bytes such that the returned address plus
// alignOfs is aligned on a 2^alignBits boundary (the lmm_alloc_aligned
// contract).
func (a *Arena) AllocAligned(size uint32, flags Flags, alignBits uint, alignOfs uint32) (uint32, bool) {
	return a.AllocGen(size, flags, alignBits, alignOfs, 0, ^uint32(0))
}

// AllocPage allocates one naturally aligned page.
func (a *Arena) AllocPage(flags Flags) (uint32, bool) {
	return a.AllocGen(PageSize, flags, 12, 0, 0, ^uint32(0))
}

// AllocGen is the general allocator: size bytes, required type flags,
// alignment (as in AllocAligned), within the address bounds [min, max].
func (a *Arena) AllocGen(size uint32, flags Flags, alignBits uint, alignOfs uint32, min, max uint32) (uint32, bool) {
	if size == 0 || alignBits >= 32 {
		return 0, false
	}
	align := uint32(1) << alignBits
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.regions {
		if r.flags&flags != flags {
			continue
		}
		for i, b := range r.free {
			// Candidate start: lowest address in the block >= min
			// satisfying the alignment phase.
			start := b.addr
			if start < min {
				start = min
			}
			start = alignUp(start, align, alignOfs)
			end := start + size
			if end < start { // overflow
				continue
			}
			if start < b.addr || end > b.addr+b.size || end-1 > max {
				continue
			}
			r.carve(i, b, start, size)
			a.scAllocs.Inc()
			a.scLive.Add(int64(size))
			return start, true
		}
	}
	a.scFails.Inc()
	return 0, false
}

// Avail reports the total free bytes in regions carrying all the given
// flags (lmm_avail).
func (a *Arena) Avail(flags Flags) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total uint32
	for _, r := range a.regions {
		if r.flags&flags == flags {
			total += r.freeBytes
		}
	}
	return total
}

// FindFree locates the first free block at or after addr, returning its
// extent and its region's flags (lmm_find_free): the open-implementation
// hook for clients that walk the free list (§4.6).
func (a *Arena) FindFree(addr uint32) (blockAddr, blockSize uint32, flags Flags, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	found := false
	var best block
	var bestFlags Flags
	for _, r := range a.regions {
		for _, b := range r.free {
			end := b.addr + b.size
			if end <= addr {
				continue
			}
			start := b.addr
			if start < addr {
				start = addr
			}
			if !found || start < best.addr {
				best = block{start, end - start}
				bestFlags = r.flags
				found = true
			}
		}
	}
	if !found {
		return 0, 0, 0, false
	}
	return best.addr, best.size, bestFlags, true
}

// RemoveFree permanently removes [addr, addr+size) from the free lists
// (lmm_remove_free): used to reserve address ranges such as loaded boot
// modules (§3.2).  Free parts inside the range disappear; allocated parts
// are untouched.
func (a *Arena) RemoveFree(addr, size uint32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lo, hi := addr, addr+size
	for _, r := range a.regions {
		var out []block
		for _, b := range r.free {
			bLo, bHi := b.addr, b.addr+b.size
			// Keep the parts of b outside [lo, hi).
			if bHi <= lo || bLo >= hi {
				out = append(out, b)
				continue
			}
			if bLo < lo {
				out = append(out, block{bLo, lo - bLo})
			}
			if bHi > hi {
				out = append(out, block{hi, bHi - hi})
			}
			cut := minU32(bHi, hi) - maxU32(bLo, lo)
			r.freeBytes -= cut
		}
		r.free = out
	}
}

// Regions returns the managed regions in search (priority) order.
func (a *Arena) Regions() []*Region {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*Region(nil), a.regions...)
}

// Dump writes a human-readable free-list listing (lmm_dump).
func (a *Arena) Dump(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.regions {
		fmt.Fprintf(w, "region [%#010x,%#010x) flags %#x pri %d free %d\n",
			r.min, r.max, uint32(r.flags), r.pri, r.freeBytes)
		for _, b := range r.free {
			fmt.Fprintf(w, "  free [%#010x,%#010x) size %#x\n", b.addr, b.addr+b.size, b.size)
		}
	}
}

// regionOf returns the region containing addr.
func (a *Arena) regionOf(addr uint32) *Region {
	for _, r := range a.regions {
		if addr >= r.min && addr < r.max {
			return r
		}
	}
	return nil
}

// insertFree adds [addr, addr+size) to the region's free list, coalescing
// with neighbours, panicking on overlap with already-free memory.
func (r *Region) insertFree(addr, size uint32) {
	i := sort.Search(len(r.free), func(i int) bool { return r.free[i].addr >= addr })
	// Overlap checks against predecessor and successor.
	if i > 0 {
		p := r.free[i-1]
		if p.addr+p.size > addr {
			panic(fmt.Sprintf("lmm: double free at %#x (overlaps free [%#x,%#x))", addr, p.addr, p.addr+p.size))
		}
	}
	if i < len(r.free) {
		n := r.free[i]
		if addr+size > n.addr {
			panic(fmt.Sprintf("lmm: double free at %#x (overlaps free [%#x,%#x))", addr, n.addr, n.addr+n.size))
		}
	}
	r.free = append(r.free, block{})
	copy(r.free[i+1:], r.free[i:])
	r.free[i] = block{addr, size}
	r.freeBytes += size
	// Coalesce with successor, then predecessor.
	if i+1 < len(r.free) && r.free[i].addr+r.free[i].size == r.free[i+1].addr {
		r.free[i].size += r.free[i+1].size
		r.free = append(r.free[:i+1], r.free[i+2:]...)
	}
	if i > 0 && r.free[i-1].addr+r.free[i-1].size == r.free[i].addr {
		r.free[i-1].size += r.free[i].size
		r.free = append(r.free[:i], r.free[i+1:]...)
	}
}

// carve removes [start, start+size) from free block i (known to contain
// it), returning leftover head/tail fragments to the free list.
func (r *Region) carve(i int, b block, start, size uint32) {
	// Remove the block.
	r.free = append(r.free[:i], r.free[i+1:]...)
	r.freeBytes -= b.size
	// Re-insert leftovers.
	if start > b.addr {
		r.insertFree(b.addr, start-b.addr)
	}
	if end, bEnd := start+size, b.addr+b.size; end < bEnd {
		r.insertFree(end, bEnd-end)
	}
}

// alignUp returns the smallest a' >= a with (a'+ofs) aligned to align.
func alignUp(a, align, ofs uint32) uint32 {
	rem := (a + ofs) & (align - 1)
	if rem == 0 {
		return a
	}
	return a + (align - rem)
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
