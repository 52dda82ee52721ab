package libc

import (
	"sync"
	"testing"

	"oskit/internal/com"
	"oskit/internal/hw"
	"oskit/internal/stats"
)

// The service constructor publishes the pool the way every kit service
// is published: the allocator itself under com.AllocatorIID, its
// statistics under com.StatsIID, both discoverable by GUID (§4.2.2) —
// and the counters move with traffic.
func TestQuickPoolService(t *testing.T) {
	c := testC(t)
	p := NewQuickPoolService(c)

	obj := c.Env().Registry.First(com.AllocatorIID)
	if obj == nil {
		t.Fatal("allocator service not registered")
	}
	alloc, ok := obj.(com.Allocator)
	if !ok {
		t.Fatalf("registered object is %T, not com.Allocator", obj)
	}
	qi, err := alloc.QueryInterface(com.AllocatorIID)
	if err != nil {
		t.Fatalf("QueryInterface(AllocatorIID): %v", err)
	}
	qi.Release()

	// Round-trip through the COM face.
	addr, mem, ok := alloc.AllocMem(64)
	if !ok || len(mem) != 64 {
		t.Fatalf("AllocMem = %v len %d", ok, len(mem))
	}
	alloc.FreeMem(addr, 64)
	a2, _, _ := alloc.AllocMem(64)
	if a2 != addr {
		t.Fatalf("freed block not recycled: %#x vs %#x", a2, addr)
	}
	alloc.FreeMem(a2, 64)

	// The stats set is discoverable and accounts for the traffic: two
	// allocs, two frees, one refill, one free-list hit.
	var snap []com.Statistic
	for _, s := range stats.Discover(c.Env().Registry) {
		if s.StatsName() == "quickpool" {
			snap = s.Snapshot()
		}
		s.Release()
	}
	if snap == nil {
		t.Fatal("quickpool stats set not discoverable")
	}
	want := map[string]int64{
		"qp.allocs": 2, "qp.frees": 2, "qp.refills": 1, "qp.hits": 1, "qp.fails": 0,
	}
	for name, v := range want {
		if got, ok := stats.Get(snap, name); !ok || got != v {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, v)
		}
	}
	_ = p
}

// The fault hook vetoes allocations before any free list runs, counts
// them as qp.fails, and comes off cleanly.
func TestQuickPoolAllocFaultHook(t *testing.T) {
	c := testC(t)
	p := NewQuickPoolService(c)
	fails := 0
	p.SetAllocFaultHook(func(size uint32) bool {
		fails++
		return fails <= 2 // fail the first two
	})
	if _, _, ok := p.Alloc(32); ok {
		t.Fatal("first allocation should fail under the hook")
	}
	if _, _, ok := p.Alloc(32); ok {
		t.Fatal("second allocation should fail under the hook")
	}
	a, _, ok := p.Alloc(32)
	if !ok {
		t.Fatal("third allocation should succeed")
	}
	p.Free(a, 32)
	p.SetAllocFaultHook(nil)
	if _, _, ok := p.Alloc(32); !ok {
		t.Fatal("allocation with hook removed should succeed")
	}
	if v := p.StatsSet().Counter("qp.fails").Load(); v != 2 {
		t.Fatalf("qp.fails = %d, want 2", v)
	}
}

// Concurrent allocate/free traffic from many goroutines: the pool's
// free lists are guarded by the environment's interrupt exclusion, so
// this must be race-clean (the -race tier runs this package) and end
// balanced.
func TestQuickPoolConcurrent(t *testing.T) {
	c := testC(t)
	p := NewQuickPoolService(c)
	const (
		workers = 8
		rounds  = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes := []uint32{16, 24, 128, 512, 2048}
			var held []hw.PhysAddr
			var heldSize []uint32
			for i := 0; i < rounds; i++ {
				size := sizes[(i+w)%len(sizes)]
				a, _, ok := p.Alloc(size)
				if !ok {
					t.Error("pool exhausted under concurrent load")
					return
				}
				held = append(held, a)
				heldSize = append(heldSize, size)
				if len(held) > 4 {
					p.Free(held[0], heldSize[0])
					held, heldSize = held[1:], heldSize[1:]
				}
			}
			for i := range held {
				p.Free(held[i], heldSize[i])
			}
		}()
	}
	wg.Wait()
	allocs := p.StatsSet().Counter("qp.allocs").Load()
	frees := p.StatsSet().Counter("qp.frees").Load()
	if allocs != uint64(workers*rounds) || frees != allocs {
		t.Fatalf("allocs/frees = %d/%d, want %d balanced", allocs, frees, workers*rounds)
	}
}

// TestQuickPoolConcurrentGaugeAudit: unserialized hammering of a pool on
// a 4-CPU machine while a reader polls every exported view — Stats and
// the counter snapshot — so the race detector pins that all backing
// state reads take the owning lock; the slab ledger and the per-op
// counters must balance once everything is freed.
func TestQuickPoolConcurrentGaugeAudit(t *testing.T) {
	p := NewQuickPoolService(testCCPUs(t, 4))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Stats()
			p.StatsSet().Snapshot()
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var live []hw.PhysAddr
			size := uint32(16 << (w % 4))
			for i := 0; i < 400; i++ {
				if addr, _, ok := p.Alloc(size); ok {
					live = append(live, addr)
				}
				if len(live) > 8 || (i%3 == 0 && len(live) > 0) {
					p.Free(live[len(live)-1], size)
					live = live[:len(live)-1]
				}
			}
			for _, a := range live {
				p.Free(a, size)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	slabs, cached := p.Stats()
	if cached != slabs*slabBlocks {
		t.Fatalf("ledger: lists %d != slabs %d * %d", cached, slabs, slabBlocks)
	}
	snap := p.StatsSet().Snapshot()
	allocs, _ := stats.Get(snap, "qp.allocs")
	frees, _ := stats.Get(snap, "qp.frees")
	if allocs != frees {
		t.Fatalf("qp.allocs %d != qp.frees %d after full free", allocs, frees)
	}
}
