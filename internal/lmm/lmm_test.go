package lmm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"oskit/internal/stats"
)

// Flags used throughout the tests, mirroring how the kernel support
// library types PC physical memory.
const (
	fDMA  Flags = 1 << 0 // below 16 MB
	fHigh Flags = 1 << 1
)

func pcArena() *Arena {
	a := NewArena()
	// DMA-able memory at low priority so it is used only on demand.
	if err := a.AddRegion(0x100000, 15<<20, fDMA, 0); err != nil {
		panic(err)
	}
	if err := a.AddRegion(16<<20, 16<<20, fHigh, 10); err != nil {
		panic(err)
	}
	a.AddFree(0x100000, 15<<20)
	a.AddFree(16<<20, 16<<20)
	return a
}

func TestAllocPrefersHighPriority(t *testing.T) {
	a := pcArena()
	addr, ok := a.Alloc(4096, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if addr < 16<<20 {
		t.Fatalf("untyped allocation came from low-priority DMA region: %#x", addr)
	}
}

func TestAllocHonorsTypeFlags(t *testing.T) {
	a := pcArena()
	addr, ok := a.Alloc(4096, fDMA)
	if !ok {
		t.Fatal("DMA alloc failed")
	}
	if addr >= 16<<20 {
		t.Fatalf("DMA allocation above the DMA limit: %#x", addr)
	}
	if _, ok := a.Alloc(4096, fDMA|fHigh); ok {
		t.Fatal("allocation with unsatisfiable flag combination succeeded")
	}
}

func TestAllocAligned(t *testing.T) {
	a := pcArena()
	for _, bits := range []uint{0, 4, 12, 16} {
		addr, ok := a.AllocAligned(100, 0, bits, 0)
		if !ok {
			t.Fatalf("aligned alloc 2^%d failed", bits)
		}
		if addr&((1<<bits)-1) != 0 {
			t.Fatalf("addr %#x not 2^%d aligned", addr, bits)
		}
	}
	// With an alignment offset: addr+ofs must be aligned.
	addr, ok := a.AllocAligned(100, 0, 12, 0x800)
	if !ok {
		t.Fatal("offset-aligned alloc failed")
	}
	if (addr+0x800)&0xfff != 0 {
		t.Fatalf("addr %#x + 0x800 not page aligned", addr)
	}
}

func TestAllocPage(t *testing.T) {
	a := pcArena()
	addr, ok := a.AllocPage(0)
	if !ok || addr&(PageSize-1) != 0 {
		t.Fatalf("AllocPage = %#x, %v", addr, ok)
	}
}

func TestAllocGenBounds(t *testing.T) {
	a := pcArena()
	// Constrain to a 64 KB window inside the DMA region.
	lo, hi := uint32(0x200000), uint32(0x20ffff)
	addr, ok := a.AllocGen(0x1000, 0, 0, 0, lo, hi)
	if !ok {
		t.Fatal("bounded alloc failed")
	}
	if addr < lo || addr+0x1000-1 > hi {
		t.Fatalf("allocation [%#x,...) escaped bounds [%#x,%#x]", addr, lo, hi)
	}
	// Impossible bounds.
	if _, ok := a.AllocGen(0x20000, 0, 0, 0, lo, lo+0x100); ok {
		t.Fatal("allocation larger than its bounds succeeded")
	}
	// Exhaustion: a request no free block can hold fails, is counted,
	// and consumes nothing.
	small := NewArena()
	set := stats.NewSet("lmm")
	small.AttachStats(set)
	if err := small.AddRegion(0x1000, 0x1000, 0, 0); err != nil {
		t.Fatal(err)
	}
	small.AddFree(0x1000, 0x1000)
	avail := small.Avail(0)
	if _, ok := small.Alloc(0x2000, 0); ok {
		t.Fatal("allocation larger than the arena succeeded")
	}
	if n, _ := stats.Get(set.Snapshot(), "lmm.failures"); n != 1 {
		t.Fatalf("lmm.failures = %d, want 1", n)
	}
	if small.Avail(0) != avail {
		t.Fatal("failed allocation consumed free memory")
	}
}

func TestFreeCoalesces(t *testing.T) {
	a := NewArena()
	if err := a.AddRegion(0, 1<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	a.AddFree(0, 1<<20)
	before := a.Avail(0)
	var addrs []uint32
	for i := 0; i < 10; i++ {
		addr, ok := a.Alloc(1000, 0)
		if !ok {
			t.Fatal("alloc failed")
		}
		addrs = append(addrs, addr)
	}
	// Free in shuffled order.
	order := rand.New(rand.NewSource(7)).Perm(len(addrs))
	for _, i := range order {
		a.Free(addrs[i], 1000)
	}
	if got := a.Avail(0); got != before {
		t.Fatalf("Avail after free-all = %d, want %d", got, before)
	}
	// Everything must have coalesced back into a single block.
	r := a.Regions()[0]
	if len(r.free) != 1 {
		t.Fatalf("free list has %d blocks after full free, want 1", len(r.free))
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := NewArena()
	if err := a.AddRegion(0, 4096, 0, 0); err != nil {
		t.Fatal(err)
	}
	a.AddFree(0, 4096)
	addr, _ := a.Alloc(128, 0)
	a.Free(addr, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(addr, 128)
}

func TestRemoveFreeReservesHoles(t *testing.T) {
	a := NewArena()
	if err := a.AddRegion(0, 0x10000, 0, 0); err != nil {
		t.Fatal(err)
	}
	a.AddFree(0, 0x10000)
	// Reserve a boot module at [0x4000, 0x6000).
	a.RemoveFree(0x4000, 0x2000)
	if got := a.Avail(0); got != 0x10000-0x2000 {
		t.Fatalf("Avail = %#x", got)
	}
	// Allocations never land in the hole.
	seen := map[uint32]bool{}
	for {
		addr, ok := a.Alloc(0x1000, 0)
		if !ok {
			break
		}
		if addr >= 0x4000 && addr < 0x6000 {
			t.Fatalf("allocation inside reserved hole: %#x", addr)
		}
		seen[addr] = true
	}
	if len(seen) != 14 {
		t.Fatalf("allocated %d pages, want 14", len(seen))
	}
}

func TestFindFreeWalk(t *testing.T) {
	a := pcArena()
	addr, _ := a.Alloc(4096, fDMA)
	a.Free(addr, 4096)
	// Walk all free blocks; they must be disjoint and sorted by the walk.
	var cursor uint32
	total := uint32(0)
	for {
		bAddr, bSize, _, ok := a.FindFree(cursor)
		if !ok {
			break
		}
		if bAddr < cursor {
			t.Fatalf("walk went backwards: %#x < %#x", bAddr, cursor)
		}
		total += bSize
		cursor = bAddr + bSize
	}
	if total != a.Avail(0) {
		t.Fatalf("walked %#x bytes, Avail says %#x", total, a.Avail(0))
	}
}

func TestAddRegionOverlapRejected(t *testing.T) {
	a := NewArena()
	if err := a.AddRegion(0x1000, 0x1000, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.AddRegion(0x1800, 0x1000, 0, 0); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if err := a.AddRegion(0, 0, 0, 0); err == nil {
		t.Fatal("empty region accepted")
	}
	if err := a.AddRegion(^uint32(0)-10, 100, 0, 0); err == nil {
		t.Fatal("wrapping region accepted")
	}
}

func TestDump(t *testing.T) {
	a := pcArena()
	var buf bytes.Buffer
	a.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "region") || !strings.Contains(out, "free") {
		t.Fatalf("Dump output unhelpful:\n%s", out)
	}
}

// Property: a random interleaving of allocations and frees never produces
// overlapping live blocks, never hands out memory beyond region bounds,
// and conserves bytes exactly.
func TestAllocFreeInvariantsProperty(t *testing.T) {
	f := func(seed int64, ops8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := pcArena()
		start := a.Avail(0)
		type alloc struct{ addr, size uint32 }
		var live []alloc
		liveBytes := uint32(0)
		ops := int(ops8%64) + 16
		for i := 0; i < ops; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := uint32(rng.Intn(8192) + 1)
				flags := Flags(0)
				if rng.Intn(4) == 0 {
					flags = fDMA
				}
				addr, ok := a.Alloc(size, flags)
				if !ok {
					continue
				}
				if flags == fDMA && addr+size > 16<<20 {
					return false // escaped DMA region
				}
				for _, l := range live {
					if addr < l.addr+l.size && l.addr < addr+size {
						return false // overlap with a live block
					}
				}
				live = append(live, alloc{addr, size})
				liveBytes += size
			} else {
				i := rng.Intn(len(live))
				a.Free(live[i].addr, live[i].size)
				liveBytes -= live[i].size
				live = append(live[:i], live[i+1:]...)
			}
		}
		return a.Avail(0) == start-liveBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllocAligned always satisfies its alignment contract for any
// alignment up to 2^20 and any offset.
func TestAlignmentContractProperty(t *testing.T) {
	f := func(bits8 uint8, ofs uint32, size16 uint16) bool {
		bits := uint(bits8 % 21)
		size := uint32(size16%4096) + 1
		a := pcArena()
		addr, ok := a.AllocAligned(size, 0, bits, ofs)
		if !ok {
			return true // pool exhaustion is legal
		}
		return (addr+ofs)&((1<<bits)-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A fault hook must fail allocations exactly as exhaustion would —
// counted as a failure, free lists untouched — and removal must restore
// normal service.
