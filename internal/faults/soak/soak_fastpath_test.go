package soak

import (
	"reflect"
	"testing"
	"time"

	"oskit/internal/evalrig"
	"oskit/internal/faults"
)

// The fast-path soak regime: the opt-in E11 configuration (scatter-
// gather transmit, QuickPool skbuff allocation) carries the CRC-
// verified transfer through the harness's hostile-wire regime.  The
// fast path removes a copy from the send side, so every corrupted or
// reordered frame now carries bytes the NIC gathered straight out of
// mbuf chains — if the gather path mis-slices a chain, TCP's checksum
// catches it here.  The QuickPool ledger must balance like every other
// allocator's.
func TestFastPathSoakHostileWire(t *testing.T) {
	if testing.Short() {
		t.Skip("soak transfers are slow")
	}
	plan := faults.Plan{
		Seed: 13, WireCorrupt: 0.05, WireDup: 0.05, WireReorder: 0.05,
		NICOverflow: 0.05, TimerJitter: 0.10,
	}
	p, err := evalrig.NewPairOpts(evalrig.OSKit, soakTick, evalrig.Options{FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	in := p.EnableFaults(plan)
	t.Logf("plan: %s", in.FaultPlan())

	if err := RunTTCP(p, 32, 4096, 5660, plan.Seed, 120*time.Second); err != nil {
		t.Fatalf("fast-path ttcp (reproduce with plan %q): %v", in.FaultPlan(), err)
	}
	if in.FaultsInjected() == 0 {
		t.Error("hostile-wire regime injected nothing")
	}
	// The run really took the fast path: the pool served packet
	// allocations and the sender left via scatter-gather, not the
	// flatten copy.
	if v, ok := p.Sender.Stat("quickpool", "qp.allocs"); !ok || v == 0 {
		t.Errorf("quickpool served no allocations (ok=%v, v=%d)", ok, v)
	}
	if v, _ := p.Sender.Stat("linux_dev", "xmit.sg"); v == 0 {
		t.Error("no scatter-gather sends on the fast-path sender")
	}
	if v, _ := p.Sender.Stat("linux_dev", "xmit.flattened"); v != 0 {
		t.Errorf("%d flatten copies on the fast-path sender", v)
	}
	// The E12 receive side rode the same hostile regime: the receiver
	// drained its ring through the mitigated poll loop and the stack
	// ingested batches — and the CRC verification above proves the
	// batched path delivered every byte intact despite the injected
	// overruns, corruption and jittered re-arm timer.
	if v, _ := p.Receiver.Stat("linux_dev", "rx.batched-frames"); v == 0 {
		t.Error("no frames drained through the receive poll loop")
	}
	if v, _ := p.Receiver.Stat("linux_dev", "rx.intr-suppressed"); v == 0 {
		t.Error("interrupt mitigation never suppressed an edge on the receiver")
	}
	if v, _ := p.Receiver.Stat("freebsd_net", "ether.rx_batches"); v == 0 {
		t.Error("stack saw no batched deliveries on the receiver")
	}
	for _, n := range []*evalrig.Node{p.Sender, p.Receiver} {
		for _, bad := range Imbalances(n) {
			t.Errorf("%s: %s", n.Machine.Name, bad)
		}
	}
}

// Allocation-failure chaos at the QuickPool seam: the injector fails
// allocations inside the very allocator the fast-path driver glue
// draws skbuff data from (the stack's mbufs and clusters come from the
// BSD malloc through its free lists, so a sender's pool decides about
// one event per received frame, not one per mbuf).  The transfer may fail
// gracefully — an injected exhaustion inside a send can surface as
// ErrNoMem, exactly like real exhaustion — but nothing may crash or
// leak, and the qp decision stream must replay bit-identically from
// the logged plan: the reproducibility contract extended to the new
// injection point.  (Whole-run traces are not comparable across runs —
// ttcp's interleaving is not deterministic — so reproducibility is
// asserted on the decision stream itself: same plan, same point, same
// event count ⇒ same fired indices.)
func TestFastPathAllocFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak transfers are slow")
	}
	plan := faults.Plan{Seed: 14, WireDrop: 0.05, AllocFailNth: 40, AllocRate: 0.002}
	p, err := evalrig.NewPairOpts(evalrig.OSKit, soakTick, evalrig.Options{FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	in := p.EnableFaults(plan)

	if err := RunTTCP(p, 48, 4096, 5661, plan.Seed, 60*time.Second); err != nil {
		t.Logf("transfer failed gracefully under qp alloc faults: %v", err)
	}

	// The qp seam was exercised and fired (alloc.nth=40 is guaranteed
	// once the sender's pool has decided 40 allocations; a 48-block
	// transfer decides about twice that).
	qp := in.Point("qp.send")
	t.Logf("qp.send decided %d events, fired %d", qp.Events(), qp.Injected())
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

	// Seed-reproducibility of the qp decision stream: replay the same
	// number of events through a fresh injector built from the same
	// plan and require the identical fired-index trace.
	replay := faults.NewInjector(plan)
	fail := replay.AllocFailFunc("qp.send")
	for i := uint64(0); i < qp.Events(); i++ {
		fail(128)
	}
	if got, want := replay.Point("qp.send").Fired(), qp.Fired(); !reflect.DeepEqual(got, want) {
		t.Errorf("qp.send decision stream not reproducible from plan %q:\n  run    %v\n  replay %v",
			in.FaultPlan(), want, got)
	}
	replay.Release()
}
