package hw

import (
	"sync"
	"testing"
	"time"
)

// Tests for the polled-receive NIC surface (E12): batched ring drain,
// interrupt mitigation, the re-arm edge, and the two receive-hook
// contracts the fault plane depends on — the hook runs outside the NIC
// lock, and it is consulted once per offered frame even when the ring
// is full.

// The receive fault hook may call back into the NIC's own accessors.
// The injector's hooks count into shared statistics and a chaos
// harness is free to snapshot NIC counters from inside one; taking
// n.mu around the hook call deadlocked exactly that.
func TestNICRxHookMayCallStats(t *testing.T) {
	_, a, b, macA, macB := twoNICs(t)

	done := make(chan struct{})
	go func() {
		defer close(done)
		b.SetRxFaultHook(func() bool {
			_, _, _ = b.Stats()          // re-enters the NIC under test
			_, _, _ = b.RxIntrCounters() // both accessor locks
			return false
		})
		a.Transmit(frame(macB, macA, "reentrant hook"))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deliver deadlocked: rx fault hook held under the NIC lock")
	}
	if f := b.RxPop(); f == nil || string(f[EtherHdrLen:]) != "reentrant hook" {
		t.Fatalf("frame lost: %q", f)
	}
}

// One offered frame, one hook decision — even when the ring is already
// full.  If the overrun check short-circuited past the hook, a full
// ring would silently skip draws from the seeded decision stream and
// replays would diverge from the logged plan.
func TestNICRxHookConsultedWhenRingFull(t *testing.T) {
	_, a, b, macA, macB := twoNICs(t)

	decisions := 0
	b.SetRxFaultHook(func() bool {
		decisions++
		return false
	})
	// Fill the ring to capacity (IRQ masked: nothing drains it), then
	// keep offering.
	const extra = 20
	for i := 0; i < EtherRingLen+extra; i++ {
		a.Transmit(frame(macB, macA, "x"))
	}
	if decisions != EtherRingLen+extra {
		t.Fatalf("hook consulted %d times for %d offered frames", decisions, EtherRingLen+extra)
	}
	rx, _, drops := b.Stats()
	if rx != EtherRingLen || drops != extra {
		t.Fatalf("rx=%d drops=%d, want %d/%d", rx, drops, EtherRingLen, extra)
	}
}

// Mitigation raises the line only on the ring's empty→non-empty edge;
// draining re-arms the edge; switching mitigation off with frames
// pending re-raises so nothing strands.
func TestRxIntrMitigationEdgeOnly(t *testing.T) {
	_, a, b, macA, macB := twoNICs(t)
	b.SetRxIntrMitigation(true)

	for i := 0; i < 5; i++ {
		a.Transmit(frame(macB, macA, "burst"))
	}
	raised, suppr, _ := b.RxIntrCounters()
	if raised != 1 || suppr != 4 {
		t.Fatalf("after burst: raised=%d suppressed=%d, want 1/4", raised, suppr)
	}

	// Drain the ring: the next frame is a fresh edge.
	dst := make([][]byte, 8)
	if n := b.RxPopBatchOn(0, dst, 8); n != 5 {
		t.Fatalf("RxPopBatchOn drained %d, want 5", n)
	}
	a.Transmit(frame(macB, macA, "fresh edge"))
	raised, suppr, _ = b.RxIntrCounters()
	if raised != 2 || suppr != 4 {
		t.Fatalf("after drain+frame: raised=%d suppressed=%d, want 2/4", raised, suppr)
	}

	// Disable with a frame still ringed: the line is re-raised, not
	// stranded.
	b.SetRxIntrMitigation(false)
	raised, _, _ = b.RxIntrCounters()
	if raised != 3 {
		t.Fatalf("disable with pending frame raised %d, want 3", raised)
	}
	// Back to the stock per-frame model.
	a.Transmit(frame(macB, macA, "stock"))
	raised, suppr, _ = b.RxIntrCounters()
	if raised != 4 || suppr != 4 {
		t.Fatalf("stock mode: raised=%d suppressed=%d, want 4/4", raised, suppr)
	}
}

// RxPopBatchOn bounds by both max and len(dst), preserves FIFO order,
// and ledgers the drained frames.
func TestRxPopBatchBounds(t *testing.T) {
	_, a, b, macA, macB := twoNICs(t)
	payloads := []string{"one", "two", "three", "four", "five"}
	for _, p := range payloads {
		a.Transmit(frame(macB, macA, p))
	}

	dst := make([][]byte, 2)
	if n := b.RxPopBatchOn(0, dst, 8); n != 2 { // bounded by len(dst)
		t.Fatalf("pop = %d, want 2", n)
	}
	if string(dst[0][EtherHdrLen:]) != "one" || string(dst[1][EtherHdrLen:]) != "two" {
		t.Fatalf("order broken: %q %q", dst[0][EtherHdrLen:], dst[1][EtherHdrLen:])
	}
	dst = make([][]byte, 8)
	if n := b.RxPopBatchOn(0, dst, 1); n != 1 { // bounded by max
		t.Fatalf("pop = %d, want 1", n)
	}
	if string(dst[0][EtherHdrLen:]) != "three" {
		t.Fatalf("order broken: %q", dst[0][EtherHdrLen:])
	}
	if n := b.RxPopBatchOn(0, dst, 8); n != 2 { // bounded by ring occupancy
		t.Fatalf("pop = %d, want 2", n)
	}
	if n := b.RxPopBatchOn(0, dst, 8); n != 0 { // empty
		t.Fatalf("pop on empty ring = %d", n)
	}
	if b.RxBatched() != 5 {
		t.Fatalf("RxBatched = %d, want 5", b.RxBatched())
	}
}

// RxRearmOn raises only when frames are pending, and ledgers the re-arm.
func TestRxRearm(t *testing.T) {
	_, a, b, macA, macB := twoNICs(t)
	if b.RxRearmOn(0) {
		t.Fatal("re-arm fired on an empty ring")
	}
	a.Transmit(frame(macB, macA, "pending"))
	if !b.RxRearmOn(0) {
		t.Fatal("re-arm did not fire with a pending frame")
	}
	raised, _, rearms := b.RxIntrCounters()
	if rearms != 1 {
		t.Fatalf("rearms = %d, want 1", rearms)
	}
	// The transmit raised once, the re-arm once more.
	if raised != 2 {
		t.Fatalf("raised = %d, want 2", raised)
	}
}

// Batch drain racing delivery at ring capacity, with the fault hook
// toggling underneath: run under -race by the tier-1 suite, and every
// frame must be conserved — accepted frames equal popped plus still
// ringed, and accepted plus dropped equals offered.
func TestRxBatchOverrunRace(t *testing.T) {
	sw, a, b, macA, macB := twoNICs(t)

	const frames = 2000
	var wg sync.WaitGroup
	popped := 0
	txDone := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(txDone)
		f := frame(macB, macA, "race traffic")
		for i := 0; i < frames; i++ {
			a.Transmit(f)
		}
	}()
	go func() {
		defer wg.Done()
		dst := make([][]byte, 16)
		for {
			n := b.RxPopBatchOn(0, dst, 16)
			popped += n
			if n == 0 {
				select {
				case <-txDone:
					return
				default:
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		hook := func() bool { return true }
		for i := 0; i < 200; i++ {
			b.SetRxFaultHook(hook)
			b.SetRxFaultHook(nil)
		}
	}()
	wg.Wait()

	// Final drain: anything still ringed.
	dst := make([][]byte, 64)
	for {
		n := b.RxPopBatchOn(0, dst, 64)
		if n == 0 {
			break
		}
		popped += n
	}
	rx, _, rxDrops := b.Stats()
	if st := sw.Stats(); st.TxFrames != frames || st.FaultDrops+st.Drops != 0 {
		t.Fatalf("switch: %+v", st)
	}
	if uint64(popped) != rx {
		t.Errorf("popped %d frames, NIC accepted %d", popped, rx)
	}
	if rx+rxDrops != frames {
		t.Errorf("frames unaccounted for: rx=%d drops=%d, offered %d", rx, rxDrops, frames)
	}
	if b.RxBatched() != uint64(popped) {
		t.Errorf("RxBatched = %d, popped %d", b.RxBatched(), popped)
	}
}
