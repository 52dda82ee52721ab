package hw

import (
	"slices"
	"sync"
	"testing"
)

// switchRig builds an n-port switch with one ic-less NIC per port
// (delivery is synchronous on the sender's thread, so tests can pop
// rings immediately; no interrupt dispatcher is needed).
func switchRig(n int) (*EtherSwitch, []*NIC) {
	sw := NewEtherSwitch()
	nics := make([]*NIC, n)
	for i := range nics {
		nics[i] = NewNIC(nil, IRQNIC0, [6]byte{2, 0, 0, 0, 0, byte(i + 1)})
		// Promiscuous: the tests observe what reaches each port, so the
		// NIC's own station filter must not eat flooded frames.
		nics[i].SetPromiscuous(true)
		sw.Attach(nics[i])
	}
	return sw, nics
}

func drainRing(n *NIC) []string {
	var got []string
	for f := n.RxPop(); f != nil; f = n.RxPop() {
		got = append(got, string(f[EtherHdrLen:]))
	}
	return got
}

func TestSwitchLearningAndFlood(t *testing.T) {
	sw, nics := switchRig(3)
	a, b, c := nics[0], nics[1], nics[2]

	// First frame: destination unknown — flooded to both other ports,
	// and the source station is learned at the ingress port.
	a.Transmit(frame(b.Mac, a.Mac, "a->b"))
	if got := drainRing(b); len(got) != 1 || got[0] != "a->b" {
		t.Fatalf("b ring = %q", got)
	}
	if got := drainRing(c); len(got) != 1 {
		t.Fatalf("unknown destination not flooded to c: %q", got)
	}
	if p := sw.PortOf(a.Mac); p != 0 {
		t.Fatalf("a learned on port %d, want 0", p)
	}
	if p := sw.PortOf(b.Mac); p != -1 {
		t.Fatalf("b learned without transmitting (port %d)", p)
	}

	// B replies: B is learned, and the reply is forwarded to A's port
	// alone (A was learned above).
	b.Transmit(frame(a.Mac, b.Mac, "b->a"))
	if got := drainRing(a); len(got) != 1 || got[0] != "b->a" {
		t.Fatalf("a ring = %q", got)
	}
	if got := drainRing(c); got != nil {
		t.Fatalf("learned unicast flooded to c: %q", got)
	}

	// Now A→B is unicast-forwarded, not flooded.
	a.Transmit(frame(b.Mac, a.Mac, "a->b again"))
	if got := drainRing(b); len(got) != 1 || got[0] != "a->b again" {
		t.Fatalf("b ring = %q", got)
	}
	if got := drainRing(c); got != nil {
		t.Fatalf("forwarded unicast leaked to c: %q", got)
	}

	// Broadcast reaches everyone but the sender.
	c.Transmit(frame(BroadcastMAC, c.Mac, "bcast"))
	if got := drainRing(a); len(got) != 1 || got[0] != "bcast" {
		t.Fatalf("a broadcast = %q", got)
	}
	if got := drainRing(b); len(got) != 1 || got[0] != "bcast" {
		t.Fatalf("b broadcast = %q", got)
	}
	if got := drainRing(c); got != nil {
		t.Fatal("sender heard its own broadcast")
	}

	st := sw.Stats()
	if st.Stations != 3 {
		t.Fatalf("stations = %d, want 3", st.Stations)
	}
	if st.Forwarded == 0 || st.Flooded == 0 {
		t.Fatalf("ledger did not move: %+v", st)
	}

	// A frame whose destination sits behind the ingress port is
	// filtered, not echoed back.
	a.Transmit(frame(a.Mac, a.Mac, "hairpin"))
	if got := drainRing(a); got != nil {
		t.Fatalf("hairpin frame delivered: %q", got)
	}
	if sw.Stats().Filtered == 0 {
		t.Fatal("filtered counter did not move")
	}
}

func TestSwitchStationMove(t *testing.T) {
	sw, nics := switchRig(3)
	a, b, c := nics[0], nics[1], nics[2]
	roaming := [6]byte{2, 0, 0, 0, 0, 99}

	// The roaming station first appears behind port 1...
	b.Transmit(frame(a.Mac, roaming, "from b"))
	drainRing(a)
	drainRing(c)
	if p := sw.PortOf(roaming); p != 1 {
		t.Fatalf("roaming learned on port %d, want 1", p)
	}
	// ...then moves behind port 2; the table follows.
	c.Transmit(frame(a.Mac, roaming, "from c"))
	drainRing(a)
	drainRing(b)
	if p := sw.PortOf(roaming); p != 2 {
		t.Fatalf("roaming still on port %d, want 2", p)
	}
	a.Transmit(frame(roaming, a.Mac, "to roaming"))
	if got := drainRing(c); len(got) != 1 || got[0] != "to roaming" {
		t.Fatalf("frame did not follow the move: %q", got)
	}
	if got := drainRing(b); got != nil {
		t.Fatalf("stale port still receiving: %q", got)
	}
}

func TestSwitchBackpressure(t *testing.T) {
	sw, nics := switchRig(2)
	a, b := nics[0], nics[1]
	sw.queueLen = 4 // before any frame is enqueued
	// Teach the switch where b is, so the test traffic is unicast.
	b.Transmit(frame(a.Mac, b.Mac, "hello"))
	drainRing(a)

	// Stall b's delivery: the rx fault hook blocks, pinning the drainer
	// thread mid-frame while later senders enqueue behind it.
	// Buffered for all five accepted frames: once release closes, the
	// drainer may run the hook for each queued frame before it is removed.
	entered := make(chan struct{}, 5)
	release := make(chan struct{})
	b.SetRxFaultHook(func() bool {
		entered <- struct{}{}
		<-release
		return false
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.Transmit(frame(b.Mac, a.Mac, "in flight"))
	}()
	<-entered

	// Queue bound is 4: the first four enqueue, the last three drop.
	for i := 0; i < 7; i++ {
		a.Transmit(frame(b.Mac, a.Mac, "queued"))
	}
	if d := sw.Stats().Drops; d != 3 {
		t.Fatalf("backpressure drops = %d, want 3", d)
	}

	close(release)
	b.SetRxFaultHook(nil)
	wg.Wait()
	// Everything that was accepted (1 in flight + 4 queued) arrives, in
	// order.  Draining may release hook entries for queued frames too.
	got := drainRing(b)
	if len(got) != 5 || got[0] != "in flight" {
		t.Fatalf("delivered = %q, want 5 frames starting with the in-flight one", got)
	}
}

func TestSwitchFaultHook(t *testing.T) {
	sw, nics := switchRig(2)
	a, b := nics[0], nics[1]
	b.Transmit(frame(a.Mac, b.Mac, "learn me"))
	drainRing(a)

	// Scripted verdicts, one per offered frame.
	script := []WireFault{
		{Drop: true},
		{Corrupt: true, CorruptOff: 0},
		{Duplicate: true},
		{Reorder: true},
		{},
	}
	i := 0
	sw.SetFaultHook(func(frameLen int) WireFault {
		f := script[i%len(script)]
		i++
		return f
	})

	a.Transmit(frame(b.Mac, a.Mac, "dropped"))
	a.Transmit(frame(b.Mac, a.Mac, "corrupt"))
	a.Transmit(frame(b.Mac, a.Mac, "doubled"))
	a.Transmit(frame(b.Mac, a.Mac, "held"))
	a.Transmit(frame(b.Mac, a.Mac, "flusher"))
	got := drainRing(b)
	want := []string{"\x9corrupt", "doubled", "doubled", "flusher", "held"}
	if len(got) != len(want) {
		t.Fatalf("delivered %d frames (%q), want %d", len(got), got, len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("frame %d = %q, want %q", j, got[j], want[j])
		}
	}
	st := sw.Stats()
	if st.FaultDrops != 1 {
		t.Fatalf("fault drops = %d, want 1", st.FaultDrops)
	}
}

// The held-back frame and the hook that parks it live under one lock:
// a transmitter on a Reorder regime and a SetFaultHook toggler race
// here, and -race must stay quiet.
func TestSwitchFaultHookToggleUnderTraffic(t *testing.T) {
	sw, nics := switchRig(2)
	a, b := nics[0], nics[1]
	hook := func(int) WireFault { return WireFault{Reorder: true} }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		f := frame(b.Mac, a.Mac, "traffic")
		for i := 0; i < 400; i++ {
			a.Transmit(f)
			drainRing(b) // keep the ring and the egress queue from filling
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sw.SetFaultHook(hook)
			sw.SetFaultHook(nil)
		}
	}()
	wg.Wait()
	if tx := sw.Stats().TxFrames; tx != 400 {
		t.Fatalf("txFrames = %d, want 400", tx)
	}
}

// raceEnabled is set by race_test.go under -race, whose instrumentation
// allocates.
var raceEnabled bool

// One ingress can hand over more idle ports than any fixed buffer
// would hold: a broadcast on a 6-port switch finds five, and with a
// Duplicate verdict and a held Reorder frame behind it every port must
// still see frame, duplicate, held, in that order, with nothing dropped.
// A second round sends the held frame to ports the unicast flusher
// never reached, so they take it idle, from their queue.
func TestSwitchFloodOrderAcrossManyHandoffs(t *testing.T) {
	sw, nics := switchRig(6)
	src := nics[0]
	verdicts := []WireFault{{Reorder: true}, {Duplicate: true}, {}, {Reorder: true}, {Duplicate: true}}
	calls := 0
	sw.SetFaultHook(func(int) WireFault {
		calls++
		if calls > len(verdicts) {
			return WireFault{}
		}
		return verdicts[calls-1]
	})
	src.Transmit(frame(BroadcastMAC, src.Mac, "held"))
	src.Transmit(frame(BroadcastMAC, src.Mac, "frame"))
	for i, n := range nics[1:] {
		got, want := drainRing(n), []string{"frame", "frame", "held"}
		if !slices.Equal(got, want) {
			t.Fatalf("port %d received %q, want %q", i+1, got, want)
		}
	}
	// Teach the switch where nics[1] is, then flush a held broadcast
	// behind a duplicated unicast to it.
	nics[1].Transmit(frame(src.Mac, nics[1].Mac, "learn"))
	drainRing(src)
	src.Transmit(frame(BroadcastMAC, src.Mac, "held2"))
	src.Transmit(frame(nics[1].Mac, src.Mac, "uni"))
	if got, want := drainRing(nics[1]), []string{"uni", "uni", "held2"}; !slices.Equal(got, want) {
		t.Fatalf("port 1 received %q, want %q", got, want)
	}
	for i, n := range nics[2:] {
		if got, want := drainRing(n), []string{"held2"}; !slices.Equal(got, want) {
			t.Fatalf("port %d received %q, want %q", i+2, got, want)
		}
	}
	if got := drainRing(src); got != nil {
		t.Fatalf("the sender heard %q", got)
	}
	st := sw.Stats()
	if st.Drops != 0 || st.FaultDrops != 0 || calls != 5 {
		t.Fatalf("drops %d, fault drops %d, hook calls %d; want 0, 0, 5", st.Drops, st.FaultDrops, calls)
	}
}

// TestSwitchTransmitAllocs: a frame through a hook-free switch into the
// peers' rings and out again costs the Go heap nothing once the free
// lists are warm, on a 2-port switch and for a broadcast that hands
// over five idle ports at once; a handoff list that escaped would cost
// one allocation per frame.
func TestSwitchTransmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, ports := range []int{2, 6} {
		_, nics := switchRig(ports)
		dst := nics[1].Mac
		if ports > 2 {
			dst = BroadcastMAC
		}
		f := frame(dst, nics[0].Mac, "steady state")
		step := func() {
			nics[0].Transmit(f)
			for _, n := range nics[1:] {
				if n.RxPop() == nil {
					t.Fatal("frame lost")
				}
			}
		}
		step()
		if n := testing.AllocsPerRun(200, step); n != 0 {
			t.Fatalf("%d ports: Transmit→RxPop allocates %v times per frame, want 0", ports, n)
		}
	}
}
