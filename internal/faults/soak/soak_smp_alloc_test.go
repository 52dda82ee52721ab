package soak

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"oskit/internal/evalrig"
	"oskit/internal/faults"
)

// TestSMPAllocFaultsReplay extends the qp decision-stream
// reproducibility contract to multi-CPU machines: on a 4-CPU fast-path
// pair four CPUs allocate from one pool concurrently, but every
// allocation still consumes exactly one decision from the injector's
// stream, so the same plan replayed over the same event count fires
// the same decision indices.  Concurrent CPUs can *record*
// their fired indices out of order (the trace append is a separate
// critical section from the index draw), so the comparison is on the
// sorted trace: same set of fired indices, not same append order.
func TestSMPAllocFaultsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("soak transfers are slow")
	}
	plan := faults.Plan{Seed: 16, WireDrop: 0.05, AllocFailNth: 40, AllocRate: 0.002}
	p, err := evalrig.NewPairOpts(evalrig.OSKit, soakTick, evalrig.Options{FastPath: true, CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	in := p.EnableFaults(plan)

	if err := RunTTCP(p, 16, 4096, 5662, plan.Seed, 60*time.Second); err != nil {
		t.Logf("transfer failed gracefully under qp alloc faults: %v", err)
	}

	qp := in.Point("qp.send")
	if qp.Events() < 40 {
		t.Fatalf("qp.send decided only %d events", qp.Events())
	}
	if qp.Injected() == 0 {
		t.Error("no faults fired at the qp seam")
	}
	if v, ok := p.Sender.Stat("quickpool", "qp.fails"); !ok || v == 0 {
		t.Errorf("pool counted no injected failures (ok=%v, v=%d)", ok, v)
	}
	for _, n := range []*evalrig.Node{p.Sender, p.Receiver} {
		for _, bad := range Imbalances(n) {
			t.Errorf("%s: %s", n.Machine.Name, bad)
		}
	}

	replay := faults.NewInjector(plan)
	fail := replay.AllocFailFunc("qp.send")
	for i := uint64(0); i < qp.Events(); i++ {
		fail(128)
	}
	got, want := replay.Point("qp.send").Fired(), qp.Fired()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("qp.send decision stream not reproducible from plan %q:\n  run    %v\n  replay %v",
			in.FaultPlan(), want, got)
	}
	replay.Release()
}
