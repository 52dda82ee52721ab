package linuxdev

import (
	"bytes"
	"testing"

	"oskit/internal/com"
	"oskit/internal/hw"
	"oskit/internal/libc"
)

// batchSink is a receive sink that negotiates the com.NetIOBatch
// extension and records the batch boundaries it was handed.
type batchSink struct {
	*sink
	batches []int // frames per PushBatch call
}

func newBatchSink() *batchSink { return &batchSink{sink: newSink()} }

func (s *batchSink) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	if iid == com.NetIOBatchIID {
		s.AddRef()
		return s, nil
	}
	return s.sink.QueryInterface(iid)
}

func (s *batchSink) PushBatch(pkts []com.BufIO, sizes []uint) error {
	s.mu.Lock()
	s.batches = append(s.batches, len(pkts))
	s.mu.Unlock()
	var firstErr error
	for i, pkt := range pkts {
		if err := s.sink.Push(pkt, sizes[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var _ com.NetIOBatch = (*batchSink)(nil)

// openEtherSink is openEther with a caller-supplied receive sink.
func openEtherSink(t *testing.T, r *rig, rx com.NetIO) (com.EtherDev, com.NetIO) {
	t.Helper()
	InitEthernet(r.fw)
	if n := r.fw.Probe(); n != 1 {
		t.Fatalf("probe claimed %d devices", n)
	}
	devs := r.fw.LookupByIID(com.EtherDevIID)
	ed := devs[0].(com.EtherDev)
	tx, err := ed.Open(rx)
	if err != nil {
		t.Fatal(err)
	}
	return ed, tx
}

// fastPool registers a QuickPool as the rig's allocator service before
// anything probes, so the glue the probe builds is fast-path; it returns
// the pool for ledger assertions.
func fastPool(r *rig) *libc.QuickPool {
	return libc.NewQuickPoolService(libc.New(r.k.Env))
}

// TestRxPollBatchedReceive pins the whole E12 receive pipeline in
// isolation: a burst landing on a mitigated NIC raises one interrupt,
// one budgeted poll drains it, the skbuffs draw from the QuickPool,
// and the batch crosses the COM boundary through one PushBatch.  The
// burst is raised with interrupt dispatch held (the donor cli/sti
// seam), so the edge/suppression arithmetic is deterministic.
func TestRxPollBatchedReceive(t *testing.T) {
	wire := hw.NewEtherWire()
	a := newRig(t, wire, 1, hw.Model3C59X)
	b := newRig(t, wire, 2, hw.Model3C59X)
	pool := fastPool(b)
	edA, txA, _ := openEther(t, a)
	defer txA.Release()
	defer edA.Release()

	rxB := newBatchSink()
	edB, txB := openEtherSink(t, b, rxB)
	rxB.Release()
	defer edB.Release()
	defer txB.Release()

	// Ledger baseline after open: the donor's descriptor ring is a live
	// pooled allocation until Stop, so the burst is asserted as a delta.
	allocs0 := pool.StatsSet().Counter("qp.allocs").Load()
	frees0 := pool.StatsSet().Counter("qp.frees").Load()

	const burst = 8
	b.m.Intr.Disable()
	for i := 0; i < burst; i++ {
		f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(),
			bytes.Repeat([]byte{byte(i)}, 100))
		if err := txA.Push(com.NewMemBuf(f), uint(len(f))); err != nil {
			b.m.Intr.Enable()
			t.Fatal(err)
		}
	}
	b.m.Intr.Enable()
	got := rxB.wait(t, burst)
	for i, f := range got {
		if len(f) != 114 || f[14] != byte(i) {
			t.Fatalf("frame %d mangled: len=%d first payload byte %#x", i, len(f), f[14])
		}
	}

	// The whole burst left the ring through the poll loop, in one batch.
	snap := kmSnap(GlueFor(b.k.Env))
	if polls, batched := snap["rx.polls"], snap["rx.batched-frames"]; polls != 1 || batched != burst {
		t.Fatalf("polls=%d batched=%d, want 1/%d", polls, batched, burst)
	}
	if raised, suppressed := snap["rx.intr-raised"], snap["rx.intr-suppressed"]; raised != 1 || suppressed != burst-1 {
		t.Fatalf("raised=%d suppressed=%d, want 1/%d", raised, suppressed, burst-1)
	}
	if nb := b.nic.RxBatched(); nb != burst {
		t.Fatalf("NIC RxBatched = %d, want %d", nb, burst)
	}
	rxB.mu.Lock()
	batches := append([]int(nil), rxB.batches...)
	rxB.mu.Unlock()
	if len(batches) != 1 || batches[0] != burst {
		t.Fatalf("sink saw batches %v, want one of %d", batches, burst)
	}

	// The receive skbuffs drew from the pool and the sink's releases
	// returned every one of them.
	allocs := pool.StatsSet().Counter("qp.allocs").Load() - allocs0
	frees := pool.StatsSet().Counter("qp.frees").Load() - frees0
	if allocs < burst {
		t.Fatalf("pool served %d allocations over the burst, want >= %d", allocs, burst)
	}
	if frees != allocs {
		t.Fatalf("pool allocs/frees over the burst = %d/%d, want balanced", allocs, frees)
	}
}

// TestRxPollBudgetRearm: a burst beyond the poll budget is drained in
// budget-sized passes, the exhausted poll re-arming the line each time
// (the NAPI "not done" reschedule) — no frame strands.
func TestRxPollBudgetRearm(t *testing.T) {
	wire := hw.NewEtherWire()
	a := newRig(t, wire, 1, hw.Model3C59X)
	b := newRig(t, wire, 2, hw.Model3C59X)
	fastPool(b)
	edA, txA, _ := openEther(t, a)
	defer txA.Release()
	defer edA.Release()
	rxB := newBatchSink()
	edB, txB := openEtherSink(t, b, rxB)
	rxB.Release()
	defer edB.Release()
	defer txB.Release()

	const burst = 2*DefaultRxBudget + 2 // well inside the 256-frame ring
	f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(), make([]byte, 200))
	b.m.Intr.Disable()
	for i := 0; i < burst; i++ {
		if err := txA.Push(com.NewMemBuf(f), uint(len(f))); err != nil {
			b.m.Intr.Enable()
			t.Fatal(err)
		}
	}
	b.m.Intr.Enable()
	rxB.wait(t, burst)

	snap := kmSnap(GlueFor(b.k.Env))
	if batched := snap["rx.batched-frames"]; batched != burst {
		t.Fatalf("batched=%d, want %d", batched, burst)
	}
	if polls := snap["rx.polls"]; polls != 3 { // budget + budget + 2
		t.Fatalf("polls=%d, want 3 budget-sized passes", polls)
	}
	if _, _, rearms := b.nic.RxIntrCounters(); rearms < 2 {
		t.Fatalf("rearms=%d, want >= 2 (two exhausted budgets)", rearms)
	}
	rxB.mu.Lock()
	batches := append([]int(nil), rxB.batches...)
	rxB.mu.Unlock()
	for _, n := range batches {
		if n > DefaultRxBudget {
			t.Fatalf("batch of %d frames exceeded the budget of %d (%v)", n, DefaultRxBudget, batches)
		}
	}
}

// TestRxPollPlainSinkFallback: a sink that only speaks per-frame NetIO
// still receives everything — negotiation fails closed onto Push.
func TestRxPollPlainSinkFallback(t *testing.T) {
	wire := hw.NewEtherWire()
	a := newRig(t, wire, 1, hw.Model3C59X)
	b := newRig(t, wire, 2, hw.Model3C59X)
	fastPool(b)
	edA, txA, _ := openEther(t, a)
	defer txA.Release()
	defer edA.Release()
	rxB := newSink() // no NetIOBatch answer
	edB, txB := openEtherSink(t, b, rxB)
	rxB.Release()
	defer edB.Release()
	defer txB.Release()

	if p := firstPoller(edB.(*etherDev)); p == nil || p.batch != nil {
		t.Fatalf("poller=%v batch negotiated=%v, want engaged with nil batch", p != nil, p != nil && p.batch != nil)
	}
	const burst = 6
	f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(), make([]byte, 64))
	for i := 0; i < burst; i++ {
		if err := txA.Push(com.NewMemBuf(f), uint(len(f))); err != nil {
			t.Fatal(err)
		}
	}
	rxB.wait(t, burst)
}

// TestRxPollDefaultOff: without the fast-path option nothing engages —
// the donor ISR keeps draining per frame, and every polled-receive
// counter stays zero.  This is the stock half of the E12 contract.
func TestRxPollDefaultOff(t *testing.T) {
	wire := hw.NewEtherWire()
	a := newRig(t, wire, 1, hw.Model3C59X)
	b := newRig(t, wire, 2, hw.Model3C59X)
	edA, txA, _ := openEther(t, a)
	defer txA.Release()
	defer edA.Release()
	edB, _, rxB := openEther(t, b)
	defer edB.Release()

	if firstPoller(edB.(*etherDev)) != nil {
		t.Fatal("poller engaged without the fast-path option")
	}
	const burst = 5
	f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(), make([]byte, 64))
	for i := 0; i < burst; i++ {
		if err := txA.Push(com.NewMemBuf(f), uint(len(f))); err != nil {
			t.Fatal(err)
		}
	}
	rxB.wait(t, burst)

	snap := kmSnap(GlueFor(b.k.Env))
	for _, row := range []string{"rx.polls", "rx.batched-frames", "rx.intr-raised", "rx.intr-suppressed"} {
		if v := snap[row]; v != 0 {
			t.Errorf("stock path moved polled-receive counter %s to %d", row, v)
		}
	}
	if _, suppr, _ := b.nic.RxIntrCounters(); suppr != 0 {
		t.Fatalf("NIC suppressed %d interrupts without mitigation", suppr)
	}
	if nb := b.nic.RxBatched(); nb != 0 {
		t.Fatalf("NIC batched %d frames on the stock path", nb)
	}
}

// TestRxPollCloseRestoresStock: Close disengages the poller and turns
// mitigation off; a reopened device engages a fresh poller and traffic
// still flows.
func TestRxPollCloseRestoresStock(t *testing.T) {
	wire := hw.NewEtherWire()
	a := newRig(t, wire, 1, hw.Model3C59X)
	b := newRig(t, wire, 2, hw.Model3C59X)
	fastPool(b)
	edA, txA, _ := openEther(t, a)
	defer txA.Release()
	defer edA.Release()
	rxB := newBatchSink()
	edB, txB := openEtherSink(t, b, rxB)
	rxB.Release()

	node := edB.(*etherDev)
	if firstPoller(node) == nil {
		t.Fatal("poller not engaged at open")
	}
	txB.Release()
	if err := edB.Close(); err != nil {
		t.Fatal(err)
	}
	if firstPoller(node) != nil {
		t.Fatal("poller survived Close")
	}

	rx2 := newBatchSink()
	tx2, err := edB.Open(rx2)
	if err != nil {
		t.Fatal(err)
	}
	rx2.Release()
	defer tx2.Release()
	defer edB.Release()
	if firstPoller(node) == nil {
		t.Fatal("reopen did not re-engage the poller")
	}
	f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(), make([]byte, 64))
	if err := txA.Push(com.NewMemBuf(f), uint(len(f))); err != nil {
		t.Fatal(err)
	}
	rx2.wait(t, 1)
}

// firstPoller returns ring 0's poller, or nil when none is engaged.
func firstPoller(e *etherDev) *rxPoller {
	if len(e.pollers) == 0 {
		return nil
	}
	return e.pollers[0]
}
