package faults

import (
	"errors"
	"reflect"
	"testing"

	"oskit/internal/com"
	"oskit/internal/hw"
	"oskit/internal/stats"
)

// Two injectors on the same plan must make identical decisions for
// identical event sequences — the property every soak replay rests on.
func TestDecisionsDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, WireDrop: 0.2, DiskErr: 0.1, DiskTorn: 0.05}
	run := func() ([]bool, []uint64) {
		in := NewInjector(plan)
		defer in.Release()
		p := in.Point("wire.drop")
		var decisions []bool
		for i := 0; i < 500; i++ {
			fired, _ := p.Roll(plan.WireDrop)
			decisions = append(decisions, fired)
		}
		return decisions, p.Fired()
	}
	d1, t1 := run()
	d2, t2 := run()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs between runs: %v vs %v", i, d1[i], d2[i])
		}
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace index %d differs: %d vs %d", i, t1[i], t2[i])
		}
	}
	if len(t1) == 0 {
		t.Fatal("20% drop over 500 events fired nothing")
	}
}

// Different seeds must give different fault sequences, and distinct
// points under one seed must have independent streams.
func TestStreamsIndependent(t *testing.T) {
	a := NewInjector(Plan{Seed: 1, WireDrop: 0.5})
	b := NewInjector(Plan{Seed: 2, WireDrop: 0.5})
	defer a.Release()
	defer b.Release()
	same := 0
	const n = 256
	for i := 0; i < n; i++ {
		fa, _ := a.Point("wire.drop").Roll(0.5)
		fb, _ := b.Point("wire.drop").Roll(0.5)
		if fa == fb {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 1 and 2 produced identical decision streams")
	}
	// Two points of one injector: same seed, different names.
	c := NewInjector(Plan{Seed: 7})
	defer c.Release()
	same = 0
	for i := 0; i < n; i++ {
		f1, _ := c.Point("x").Roll(0.5)
		f2, _ := c.Point("y").Roll(0.5)
		if f1 == f2 {
			same++
		}
	}
	if same == n {
		t.Fatal("points x and y share one decision stream")
	}
}

func TestRollRateZeroNeverFires(t *testing.T) {
	in := NewInjector(Plan{Seed: 3})
	defer in.Release()
	p := in.Point("quiet")
	for i := 0; i < 1000; i++ {
		if fired, _ := p.Roll(0); fired {
			t.Fatal("rate 0 fired")
		}
	}
	if p.Events() != 1000 || p.Injected() != 0 {
		t.Fatalf("events=%d injected=%d, want 1000/0", p.Events(), p.Injected())
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	plans := []Plan{
		{Seed: 42},
		{Seed: -7, WireDrop: 0.2, WireBurst: 4, DiskErr: 0.01},
		{Seed: 1, WireCorrupt: 0.125, WireDup: 0.5, WireReorder: 0.0625,
			NICOverflow: 0.03125, DiskTorn: 0.25, TimerJitter: 0.1,
			AllocRate: 0.015625, AllocFailNth: 3, AllocPressure: 1 << 20},
	}
	for _, p := range plans {
		s := p.String()
		got, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		if got != p {
			t.Fatalf("round trip changed the plan:\n  in  %+v\n  via %q\n  out %+v", p, s, got)
		}
	}
}

func TestParsePlanRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"seed",                // not key=value
		"seed=abc",            // bad int
		"wire.drop=2",         // rate out of range
		"wire.drop=-0.1",      // rate out of range
		"bogus.knob=1",        // unknown key
		"seed=1 wire.drop=xx", // bad float
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted garbage", s)
		}
	}
}

func TestParsePlanSeparators(t *testing.T) {
	p, err := ParsePlan("seed=9,wire.drop=0.5, disk.err=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.WireDrop != 0.5 || p.DiskErr != 0.25 {
		t.Fatalf("comma-separated plan parsed wrong: %+v", p)
	}
}

// A fired drop with wire.burst=n must take exactly n consecutive frames.
func TestWireHookBurstLoss(t *testing.T) {
	plan := Plan{Seed: 11, WireDrop: 0.05, WireBurst: 4}
	in := NewInjector(plan)
	defer in.Release()
	hook := in.WireHook()
	var drops []int
	for i := 0; i < 2000; i++ {
		if hook(1500).Drop {
			drops = append(drops, i)
		}
	}
	if len(drops) == 0 {
		t.Fatal("no drops at 5% over 2000 frames")
	}
	// Every run of consecutive dropped frames must be a multiple of the
	// burst length (bursts can abut, but never fragment).
	run := 1
	for i := 1; i <= len(drops); i++ {
		if i < len(drops) && drops[i] == drops[i-1]+1 {
			run++
			continue
		}
		if run%plan.WireBurst != 0 {
			t.Fatalf("burst of %d frames, want multiples of %d (drops %v)", run, plan.WireBurst, drops)
		}
		run = 1
	}
	if got := in.Point("wire.drop").Injected(); got != uint64(len(drops)) {
		t.Fatalf("drop point counted %d, hook dropped %d", got, len(drops))
	}
}

func TestWireHookCorruptOffsetInRange(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, WireCorrupt: 1})
	defer in.Release()
	hook := in.WireHook()
	for i := 0; i < 100; i++ {
		f := hook(64)
		if !f.Corrupt {
			t.Fatal("corrupt rate 1 did not fire")
		}
		if f.CorruptOff < 0 || f.CorruptOff >= 64 {
			t.Fatalf("corrupt offset %d outside frame of 64", f.CorruptOff)
		}
	}
}

// A torn write must tear a strict prefix: at least 0 and fewer than the
// request's sectors, derived from the same hash as the decision.
func TestDiskHookTornWrites(t *testing.T) {
	in := NewInjector(Plan{Seed: 13, DiskTorn: 1})
	defer in.Release()
	hook := in.DiskHook("disk")
	for i := 0; i < 100; i++ {
		f := hook(true, 0, 8)
		if !errors.Is(f.Err, ErrInjected) {
			t.Fatalf("torn rate 1 did not fail the write: %v", f.Err)
		}
		if f.TornSectors >= 8 {
			t.Fatalf("torn %d of 8 sectors is not a strict prefix", f.TornSectors)
		}
	}
	// Reads never tear; with only DiskTorn active they pass untouched.
	if f := hook(false, 0, 8); f.Err != nil {
		t.Fatalf("read faulted under a torn-write-only plan: %v", f.Err)
	}
}

func TestAllocFailNth(t *testing.T) {
	in := NewInjector(Plan{Seed: 17, AllocFailNth: 3})
	defer in.Release()
	fail := in.AllocFailFunc("alloc.test")
	var failed []int
	for i := 1; i <= 10; i++ {
		if fail(64) {
			failed = append(failed, i)
		}
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("alloc.nth=3 failed allocations %v, want exactly [3]", failed)
	}
}

// The injector is a COM object: discoverable via FaultIID, counting
// into a com.Stats set.
func TestInjectorCOMContract(t *testing.T) {
	plan := Plan{Seed: 23, WireDrop: 0.5}
	in := NewInjector(plan)
	defer in.Release()

	unk, err := in.QueryInterface(com.FaultIID)
	if err != nil {
		t.Fatalf("QueryInterface(FaultIID): %v", err)
	}
	fi := unk.(com.FaultInjector)
	defer fi.Release()
	if fi.FaultSeed() != 23 {
		t.Fatalf("FaultSeed = %d", fi.FaultSeed())
	}
	back, err := ParsePlan(fi.FaultPlan())
	if err != nil || back != plan {
		t.Fatalf("FaultPlan %q does not round-trip: %+v, %v", fi.FaultPlan(), back, err)
	}
	if _, err := in.QueryInterface(com.StatsIID); err == nil {
		t.Fatal("injector answered for StatsIID; its stats live in StatsSet()")
	}

	p := in.Point("wire.drop")
	for i := 0; i < 200; i++ {
		p.Roll(plan.WireDrop)
	}
	if fi.FaultsInjected() == 0 {
		t.Fatal("FaultsInjected stayed 0 after 200 rolls at 50%")
	}
	snap := in.StatsSet().Snapshot()
	ev, ok1 := stats.Get(snap, "wire.drop.events")
	inj, ok2 := stats.Get(snap, "wire.drop.injected")
	tot, ok3 := stats.Get(snap, "injected.total")
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("stats rows missing: %v %v %v", ok1, ok2, ok3)
	}
	if ev != 200 || inj == 0 || tot != inj {
		t.Fatalf("events=%d injected=%d total=%d", ev, inj, tot)
	}
}

// End-to-end through the simulated switch: a hooked EtherSwitch under a
// corrupt-everything plan flips exactly one payload byte per frame.
func TestWireHookOnSwitch(t *testing.T) {
	in := NewInjector(Plan{Seed: 29, WireCorrupt: 1})
	defer in.Release()

	sw := hw.NewEtherSwitch()
	a := hw.NewNIC(nil, 0, [6]byte{2, 0, 0, 0, 0, 1})
	b := hw.NewNIC(nil, 0, [6]byte{2, 0, 0, 0, 0, 2})
	sw.Attach(a)
	sw.Attach(b)
	sw.SetFaultHook(in.WireHook())

	frame := make([]byte, 64)
	copy(frame[0:6], b.Mac[:])
	copy(frame[6:12], a.Mac[:])
	a.Transmit(frame)

	got := b.RxPop()
	if got == nil {
		t.Fatal("corrupted frame was not delivered")
	}
	diff := 0
	for i := range frame {
		if got[i] != frame[i] {
			diff++
			if i < hw.EtherHdrLen {
				t.Fatalf("corruption hit the ether header at byte %d", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if in.FaultsInjected() == 0 {
		t.Fatal("injector counted no faults")
	}
}

// The NIC receive hook draws one decision per offered frame even when
// the ring is full: ring occupancy must not desynchronize the seeded
// decision stream from the frame sequence, or a replay from the logged
// plan would fire at different frames than the run it reproduces.
func TestNICRxHookDecisionStreamIgnoresRingOccupancy(t *testing.T) {
	plan := Plan{Seed: 31, NICOverflow: 0.1}
	in := NewInjector(plan)
	defer in.Release()

	sw := hw.NewEtherSwitch()
	a := hw.NewNIC(nil, 0, [6]byte{2, 0, 0, 0, 0, 1})
	b := hw.NewNIC(nil, 0, [6]byte{2, 0, 0, 0, 0, 2}) // never drained
	sw.Attach(a)
	sw.Attach(b)
	b.SetRxFaultHook(in.NICRxHook("nic.rx.test"))

	// Offer far more frames than the ring holds: the tail arrives with
	// the ring at capacity and must still consume decisions.
	const offered = hw.EtherRingLen + 200
	f := make([]byte, 64)
	copy(f[0:6], b.Mac[:])
	copy(f[6:12], a.Mac[:])
	for i := 0; i < offered; i++ {
		a.Transmit(f)
	}

	p := in.Point("nic.rx.test")
	if p.Events() != offered {
		t.Fatalf("point decided %d events for %d offered frames", p.Events(), offered)
	}
	if p.Injected() == 0 {
		t.Fatal("10%% overflow over the run fired nothing")
	}

	// Replay the decision stream from a fresh injector on the same plan:
	// the fired-index trace must be bit-identical, ring or no ring.
	replay := NewInjector(plan)
	defer replay.Release()
	hook := replay.NICRxHook("nic.rx.test")
	for i := 0; i < offered; i++ {
		hook()
	}
	if got, want := replay.Point("nic.rx.test").Fired(), p.Fired(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decision stream not reproducible:\n  run    %v\n  replay %v", want, got)
	}
}
