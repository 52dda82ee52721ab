package linuxdev

import (
	"sync"
	"testing"

	"oskit/internal/hw"
	"oskit/internal/kern"
	"oskit/internal/libc"
	"oskit/internal/linux/legacy"
	"oskit/internal/stats"
)

// testKmGlue builds an encapsulated glue on a 4-CPU machine assembled
// with the fast-path pool — what an evalrig FastPath node with CPUs > 1
// boots — and returns the pool for ledger checks.
func testKmGlue(t *testing.T) (*Glue, *libc.QuickPool) {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "kmsmp", MemBytes: 16 << 20, CPUs: 4})
	t.Cleanup(m.Halt)
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := libc.NewQuickPoolService(libc.New(k.Env))
	return GlueFor(k.Env), pool
}

func kmSnap(g *Glue) map[string]int64 {
	out := map[string]int64{}
	for _, s := range stats.Discover(g.env.Registry) {
		if s.StatsName() == "linux_dev" {
			for _, st := range s.Snapshot() {
				out[st.Name] = st.Value
			}
		}
		s.Release()
	}
	return out
}

// TestKmallocConcurrentGaugeAudit pins the gauge audit for the kmalloc
// set under its one exclusion (klMu): concurrent Kmalloc/Kfree traffic
// on the fast-path pool route, snapshot readers, and hook togglers run
// clean under the race detector, and both the kmalloc pair and the
// pool's own pair balance exactly after a full free.
func TestKmallocConcurrentGaugeAudit(t *testing.T) {
	g, pool := testKmGlue(t)
	var traffic, pollers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			sizes := []uint32{64, 256, 2048}
			var held []*legacy.KBuf
			for i := 0; i < 300; i++ {
				b := g.Kernel().Kmalloc(sizes[(w+i)%len(sizes)], 0)
				if b == nil {
					continue
				}
				held = append(held, b)
				if len(held) >= 8 {
					for _, h := range held {
						g.Kernel().Kfree(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				g.Kernel().Kfree(h)
			}
		}(w)
	}
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = kmSnap(g)
		}
	}()
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n++
			if n%2 == 0 {
				g.SetKmallocFaultHook(func(size uint32) bool { return false })
			} else {
				g.SetKmallocFaultHook(nil)
			}
		}
	}()
	traffic.Wait()
	close(stop)
	pollers.Wait()
	g.SetKmallocFaultHook(nil)
	snap := kmSnap(g)
	if snap["kmalloc.allocs"] != snap["kmalloc.frees"] {
		t.Fatalf("allocs %d != frees %d after full free",
			snap["kmalloc.allocs"], snap["kmalloc.frees"])
	}
	qsnap := pool.StatsSet().Snapshot()
	qAllocs, _ := stats.Get(qsnap, "qp.allocs")
	qFrees, _ := stats.Get(qsnap, "qp.frees")
	if qAllocs != qFrees {
		t.Fatalf("qp.allocs %d != qp.frees %d after full free", qAllocs, qFrees)
	}
}

// TestCliFollowsTheImage pins the driver glue's two exclusions.  The
// donor allocator has one, klMu, on every machine size and in both
// image kinds: kmalloc and kfree never take process-level cli.  The
// donor's own cli seam follows the image kind and never the machine: a
// no-op in the encapsulated image, whose driver entry is excluded from
// outside, and real in the monolithic baseline (ProbeNative), that
// kernel's only exclusion.
func TestCliFollowsTheImage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cpus    int
		native  bool
		wantCli int
	}{
		{"encapsulated/1cpu", 1, false, 0},
		{"encapsulated/4cpu", 4, false, 0},
		{"native/1cpu", 1, true, 1},
		{"native/4cpu", 4, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := hw.NewMachine(hw.Config{Name: "cli", MemBytes: 16 << 20, CPUs: tc.cpus})
			t.Cleanup(m.Halt)
			k, err := kern.Setup(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			clis := 0
			disable := k.Env.IntrDisable
			k.Env.IntrDisable = func() { clis++; disable() }
			if tc.native {
				ProbeNative(k.Env)
			}
			lk := GlueFor(k.Env).Kernel()
			lk.Kfree(lk.Kmalloc(64, legacy.GFPKernel))
			if clis != 0 {
				t.Fatalf("kmalloc + kfree took process-level cli %d times, want 0", clis)
			}
			flags := lk.SaveFlags()
			lk.Cli()
			lk.RestoreFlags(flags)
			if clis != tc.wantCli {
				t.Fatalf("the donor's cli took process-level cli %d times, want %d", clis, tc.wantCli)
			}
		})
	}
}
