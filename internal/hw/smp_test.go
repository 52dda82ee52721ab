package hw

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSMPDispatchConcurrent: handlers on lines with different CPU
// affinities run concurrently — the per-CPU interrupt exclusion replaces
// the old machine-wide one.
func TestSMPDispatchConcurrent(t *testing.T) {
	ic := NewIntrControllerCPUs(2)
	defer ic.stop()
	if ic.NumCPUs() != 2 {
		t.Fatalf("NumCPUs = %d", ic.NumCPUs())
	}
	ic.SetAffinity(5, 0)
	ic.SetAffinity(6, 1)

	inA := make(chan struct{})
	release := make(chan struct{})
	bRan := make(chan struct{})
	ic.SetHandler(5, func(int) { close(inA); <-release })
	ic.SetHandler(6, func(int) { close(bRan) })
	ic.SetMask(5, false)
	ic.SetMask(6, false)

	ic.Raise(5)
	<-inA // CPU 0 is parked inside handler A
	ic.Raise(6)
	select {
	case <-bRan: // CPU 1 dispatched B while A still runs
	case <-time.After(5 * time.Second):
		t.Fatal("cross-CPU handler did not run while CPU 0 was busy")
	}
	close(release)
}

// TestSMPDisableExcludesCPU0Only: the legacy Disable section stops CPU 0
// handlers but not another CPU's.
func TestSMPDisableExcludesCPU0Only(t *testing.T) {
	ic := NewIntrControllerCPUs(2)
	defer ic.stop()
	ic.SetAffinity(7, 1)
	var cpu0Ran atomic.Bool
	cpu1Ran := make(chan struct{})
	ic.SetHandler(3, func(int) { cpu0Ran.Store(true) })
	ic.SetHandler(7, func(int) { close(cpu1Ran) })
	ic.SetMask(3, false)
	ic.SetMask(7, false)

	ic.Disable()
	ic.Raise(3)
	ic.Raise(7)
	select {
	case <-cpu1Ran:
	case <-time.After(5 * time.Second):
		ic.Enable()
		t.Fatal("CPU 1 handler blocked by CPU 0 Disable")
	}
	if cpu0Ran.Load() {
		ic.Enable()
		t.Fatal("CPU 0 handler ran inside Disable section")
	}
	ic.Enable()
	deadline := time.Now().Add(5 * time.Second)
	for !cpu0Ran.Load() {
		if time.Now().After(deadline) {
			t.Fatal("CPU 0 handler never ran after Enable")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSMPInIntrPerCPU: InIntr answers for the *calling goroutine* on a
// multi-CPU machine — process-level code is not misclassified while some
// other CPU is mid-handler.
func TestSMPInIntrPerCPU(t *testing.T) {
	ic := NewIntrControllerCPUs(2)
	defer ic.stop()
	ic.SetAffinity(8, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var sawInIntr atomic.Bool
	ic.SetHandler(8, func(int) {
		sawInIntr.Store(ic.InIntr())
		close(entered)
		<-release
	})
	ic.SetMask(8, false)
	ic.Raise(8)
	<-entered
	if ic.InIntr() {
		t.Fatal("process level reported InIntr while CPU 1 ran a handler")
	}
	close(release)
	if !sawInIntr.Load() {
		t.Fatal("handler did not observe InIntr")
	}
}

// TestAllocLine: MSI-style vectors come from the 16..31 range, are
// unique, and run out cleanly.
func TestAllocLine(t *testing.T) {
	ic := NewIntrControllerCPUs(1)
	defer ic.stop()
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		l := ic.AllocLine()
		if l < 16 || l >= NumIRQs || seen[l] {
			t.Fatalf("AllocLine #%d = %d (seen=%v)", i, l, seen[l])
		}
		seen[l] = true
	}
	if l := ic.AllocLine(); l != -1 {
		t.Fatalf("AllocLine past exhaustion = %d, want -1", l)
	}
}

// TestConfigureRxQueuesRSSDelivery: a multi-queue NIC spreads flows
// across rings by hash, each ring raising its own affinitized line, and
// the per-queue drain APIs return exactly what the classifier routed.
func TestConfigureRxQueuesRSSDelivery(t *testing.T) {
	m := NewMachine(Config{Name: "rx", CPUs: 4})
	defer m.Halt()
	w := NewEtherSwitch()
	src := m.AttachNIC(w, [6]byte{2, 0, 0, 0, 0, 1}, Model3C59X)
	dst := m.AttachNIC(w, [6]byte{2, 0, 0, 0, 0, 2}, Model3C59X)
	lines := dst.ConfigureRxQueues(4)
	if len(lines) != 4 || dst.RxQueues() != 4 {
		t.Fatalf("rings = %v (%d)", lines, dst.RxQueues())
	}
	if lines[0] != dst.IRQ() {
		t.Fatalf("ring 0 line %d != legacy IRQ %d", lines[0], dst.IRQ())
	}
	for q := 1; q < 4; q++ {
		if got := m.Intr.Affinity(lines[q]); got != q%4 {
			t.Fatalf("ring %d affinity = CPU %d, want %d", q, got, q%4)
		}
		if dst.RxIRQ(q) != lines[q] {
			t.Fatalf("RxIRQ(%d) = %d, want %d", q, dst.RxIRQ(q), lines[q])
		}
	}

	var mu sync.Mutex
	got := map[int]int{} // ring -> frames observed via its own line
	for q := 0; q < 4; q++ {
		q := q
		m.Intr.SetHandler(lines[q], func(int) {
			for dst.RxPopOn(q) != nil {
				mu.Lock()
				got[q]++
				mu.Unlock()
			}
		})
		m.Intr.SetMask(lines[q], false)
	}

	const flows, perFlow = 32, 4
	want := map[int]int{}
	for p := 0; p < flows; p++ {
		f := rssFrame(rssProtoTCP, 0x0a000001, 0x0a000002, uint16(2000+p), 5001, 0, 16)
		copy(f[0:6], dst.Mac[:])
		copy(f[6:12], src.Mac[:])
		want[RSSRing(f, 4)] += perFlow
		for i := 0; i < perFlow; i++ {
			src.Transmit(f)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, c := range got {
			total += c
		}
		done := total == flows*perFlow
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained %v, want %v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	spread := 0
	for q := 0; q < 4; q++ {
		if got[q] != want[q] {
			t.Fatalf("ring %d drained %d frames, classifier said %d", q, got[q], want[q])
		}
		if got[q] > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("32 flows all landed on %d ring(s)", spread)
	}
	rx, tx, drops := dst.Stats()
	_ = tx
	if rx != uint64(flows*perFlow) || drops != 0 {
		t.Fatalf("aggregate stats rx=%d drops=%d", rx, drops)
	}
}

// TestSingleQueueUnchanged: without ConfigureRxQueues the NIC is the
// classic single-ring device — one queue, legacy line, RxPop drains.
func TestSingleQueueUnchanged(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	n := NewNIC(ic, IRQNIC0, [6]byte{2, 0, 0, 0, 0, 9})
	if n.RxQueues() != 1 || n.RxIRQ(0) != IRQNIC0 || n.RxIRQ(1) != -1 {
		t.Fatalf("queues=%d irq0=%d irq1=%d", n.RxQueues(), n.RxIRQ(0), n.RxIRQ(1))
	}
	n.SetPromiscuous(true) // the frame names no station
	f := rssFrame(rssProtoTCP, 1, 2, 3, 4, 0, 8)
	n.deliver(&wireFrame{buf: f, len: len(f), corrupt: -1})
	if f := n.RxPop(); f == nil {
		t.Fatal("RxPop returned nil after receive")
	}
}
