package bsdglue

import (
	"sync"
	"testing"

	"oskit/internal/hw"
	"oskit/internal/stats"
)

func mallocSnap(g *Glue) map[string]int64 {
	out := map[string]int64{}
	for _, s := range stats.Discover(g.env.Registry) {
		if s.StatsName() == "bsd_malloc" {
			for _, st := range s.Snapshot() {
				out[st.Name] = st.Value
			}
		}
		s.Release()
	}
	return out
}

// TestMallocConcurrentGaugeAudit pins the gauge audit: every read of
// the allocator's backing state (the live-byte ledger behind
// malloc.bytes_live, the page table behind malloc.table_bytes, the
// size table behind SizeOf) happens under the allocator lock, and the
// exported gauge/counter handles are single atomic words — so the
// allocator can be hammered by allocators, gauge readers and snapshot
// takers at once on a 4-CPU machine with the race detector on.
func TestMallocConcurrentGaugeAudit(t *testing.T) {
	g := testGlueCPUs(t, 4)

	const workers, ops = 6, 400
	var traffic, pollers sync.WaitGroup
	stop := make(chan struct{})

	// Allocator traffic over the mbuf hot sizes and one more bucket.
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			sizes := []uint32{128, 512, 2048}
			var held []hw.PhysAddr
			for i := 0; i < ops; i++ {
				addr, _, ok := g.Malloc.Alloc(sizes[(w+i)%len(sizes)])
				if !ok {
					continue
				}
				held = append(held, addr)
				if len(held) >= 8 {
					for _, h := range held {
						g.Malloc.Free(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				g.Malloc.Free(h)
			}
		}(w)
	}
	// Readers: the lock-guarded accessors and the stats snapshot path
	// WriteStats/oskit-stats ride.
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = g.Malloc.LiveBytes()
			_ = g.Malloc.TableBytes()
			_ = g.Malloc.Growths()
			_ = mallocSnap(g)
		}
	}()
	traffic.Wait()
	close(stop)
	pollers.Wait()

	if v := g.Malloc.LiveBytes(); v != 0 {
		t.Fatalf("LiveBytes = %d after all frees", v)
	}
	snap := mallocSnap(g)
	if snap["malloc.frees"] != snap["malloc.allocs"] {
		t.Fatalf("frees %d != allocs %d after all frees", snap["malloc.frees"], snap["malloc.allocs"])
	}
}
