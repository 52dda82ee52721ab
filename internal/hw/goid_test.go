package hw

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stackGoID is the oracle for the identity contract: the goroutine number
// parsed from the runtime stack header ("goroutine N [running]: …"), which
// the runtime never reuses.  It is what goid was before the getg stubs.
func stackGoID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// growStack recurses through depth 1 KiB frames, forcing the runtime to
// move the goroutine onto a larger stack.
//
//go:noinline
func growStack(depth int) byte {
	var pad [1024]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return growStack(depth-1) + pad[depth%len(pad)]
}

// TestGoIDContract: GoID is non-zero, pairwise distinct among goroutines
// alive together, stable across a stack move and a reschedule, and in
// bijection with the runtime's own goroutine numbers.
func TestGoIDContract(t *testing.T) {
	const live = 1000
	type ident struct{ id, num uint64 }
	got := make([]ident, live)
	release := make(chan struct{})
	var recorded, exited sync.WaitGroup
	recorded.Add(live)
	exited.Add(live)
	for i := range live {
		go func() {
			defer exited.Done()
			me := ident{GoID(), stackGoID()}
			if i%50 == 0 {
				growStack(512) // 512 KiB: past any initial stack size
			}
			runtime.Gosched()
			if again := (ident{GoID(), stackGoID()}); again != me {
				t.Errorf("identity moved on one goroutine: %+v then %+v", me, again)
			}
			got[i] = me
			recorded.Done()
			<-release // stay alive until every identity is on record
		}()
	}
	recorded.Wait()
	close(release)
	exited.Wait()

	byID := make(map[uint64]uint64, live)
	nums := make(map[uint64]bool, live)
	for _, g := range got {
		if g.id == 0 || g.num == 0 {
			t.Fatalf("zero identity: %+v", g)
		}
		if other, dup := byID[g.id]; dup {
			t.Fatalf("goroutines %d and %d were alive together with one GoID %#x", other, g.num, g.id)
		}
		byID[g.id] = g.num
		nums[g.num] = true
	}
	if len(nums) != live {
		t.Fatalf("oracle saw %d goroutine numbers for %d goroutines", len(nums), live)
	}
}

// BenchmarkCPUIdentity prices thread-of-control identity next to an
// uncontended mutex pair; run with -cpu 1,2 to see that GoID does not
// slow down in parallel (EXPERIMENTS.md E18 has the numbers).
func BenchmarkCPUIdentity(b *testing.B) {
	var sink atomic.Uint64
	var mu sync.Mutex
	for _, row := range []struct {
		name string
		op   func() uint64
	}{
		{"GoID", GoID},
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
