package hw

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCurCPUDispatcherExact: inside an interrupt handler, CurCPU reports
// the affinity CPU the handler was routed to — each CPU records its
// dispatcher's identity, so dispatcher identity is exact.
func TestCurCPUDispatcherExact(t *testing.T) {
	ic := NewIntrControllerCPUs(4)
	defer ic.stop()
	got := make(chan int, 1)
	ic.SetHandler(5, func(int) { got <- ic.CurCPU() })
	ic.SetMask(5, false)
	for want := 0; want < 4; want++ {
		ic.SetAffinity(5, want)
		ic.Raise(5)
		if cpu := <-got; cpu != want {
			t.Fatalf("handler on affinity CPU %d saw CurCPU = %d", want, cpu)
		}
	}
}

// TestCurCPUProcessLevel: process-level goroutines get a stable in-range
// slot, and a single-CPU controller always reports 0.
func TestCurCPUProcessLevel(t *testing.T) {
	one := NewIntrController()
	defer one.stop()
	if cpu := one.CurCPU(); cpu != 0 {
		t.Fatalf("1-CPU CurCPU = %d, want 0", cpu)
	}

	ic := NewIntrControllerCPUs(4)
	defer ic.stop()
	first := ic.CurCPU()
	if first < 0 || first >= 4 {
		t.Fatalf("CurCPU = %d, out of range", first)
	}
	for i := 0; i < 8; i++ {
		if cpu := ic.CurCPU(); cpu != first {
			t.Fatalf("CurCPU not stable on one goroutine: %d then %d", first, cpu)
		}
	}
}

// TestMixGoIDSpreads: neighbouring identities land on different slots
// rather than clustering — consecutive numbers (the fallback port) and
// equally aligned addresses (the getg ports) alike.
func TestMixGoIDSpreads(t *testing.T) {
	for _, in := range []struct {
		name         string
		base, stride uint64
	}{
		{"consecutive numbers", 1, 1},
		{"aligned addresses", 0xc000002000, 0x200},
	} {
		seen := map[uint64]bool{}
		for i := uint64(0); i < 64; i++ {
			seen[mixGoID(in.base+i*in.stride)%8] = true
		}
		if len(seen) != 8 {
			t.Errorf("64 %s covered %d of 8 slots", in.name, len(seen))
		}
	}
}

// BenchmarkCPUIdentity prices identity and the shard key against the lock
// the key steers around; run with -cpu 1,2 to see that neither slows down
// in parallel (the numbers behind percpu.go's header).
func BenchmarkCPUIdentity(b *testing.B) {
	ic := NewIntrControllerCPUs(4)
	defer ic.stop()
	var sink atomic.Uint64
	var mu sync.Mutex
	for _, row := range []struct {
		name string
		op   func() uint64
	}{
		{"GoID", GoID},
		{"CurCPU", func() uint64 { return uint64(ic.CurCPU()) }},
		{"MutexPair", func() uint64 { mu.Lock(); mu.Unlock(); return 0 }},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				var acc uint64
				for pb.Next() {
					acc += row.op()
				}
				sink.Add(acc)
			})
		})
	}
}
