package hw

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Regression tests for the hardware fault plane: the hooks the
// injector (internal/faults) drives, and the completion guarantees the
// chaos harness leans on.

var errMedia = errors.New("test: injected media error")

// Every request submitted to a live disk completes — transfer done,
// media error, or ErrDiskStopped — even when power-off catches it
// queued or in flight.  Nothing is ever silently dropped.
func TestDiskStopDrainsInFlight(t *testing.T) {
	m := NewMachine(Config{Name: "t", MemBytes: 1 << 20})
	d := m.AttachDisk(NewDisk(64))
	// Pace the queue: the hook runs on the service goroutine, one
	// request at a time, so power-off lands with requests still queued.
	d.SetFaultHook(func(bool, uint32, uint32) DiskFault {
		time.Sleep(2 * time.Millisecond)
		return DiskFault{}
	})

	const n = 8
	reqs := make([]*DiskReq, n)
	for i := range reqs {
		reqs[i] = &DiskReq{Write: true, Sector: uint32(i), Count: 1, Buf: make([]byte, SectorSize)}
		d.Submit(reqs[i])
	}
	m.Halt() // races power-off against the queue on purpose

	for i, r := range reqs {
		if !r.Done {
			t.Fatalf("request %d vanished: not Done after halt", i)
		}
		if r.Err != nil && r.Err != ErrDiskStopped {
			t.Fatalf("request %d: unexpected error %v", i, r.Err)
		}
	}
	// Every completion is also reapable.
	reaped := 0
	for d.Reap() != nil {
		reaped++
	}
	if reaped != n {
		t.Fatalf("reaped %d of %d completions", reaped, n)
	}

	// Submission after power-off completes immediately, same contract.
	late := &DiskReq{Sector: 0, Count: 1, Buf: make([]byte, SectorSize)}
	d.Submit(late)
	if !late.Done || late.Err != ErrDiskStopped {
		t.Fatalf("post-halt submit: Done=%v Err=%v", late.Done, late.Err)
	}
	if got := d.Reap(); got != late {
		t.Fatalf("post-halt completion not reapable: %v", got)
	}

	// A powered-off disk must not be wired into a new machine.
	defer func() {
		if recover() == nil {
			t.Fatal("attaching a stopped disk did not panic")
		}
	}()
	NewMachine(Config{Name: "t2", MemBytes: 1 << 20}).AttachDisk(d)
}

// The disk fault hook fails requests and tears writes: a torn write
// puts exactly the hook's prefix on the platter and fails the request.
func TestDiskFaultHookTornWrite(t *testing.T) {
	m := NewMachine(Config{Name: "t", MemBytes: 1 << 20})
	defer m.Halt()
	d := m.AttachDisk(NewDisk(64))
	completions := make(chan struct{}, 8)
	m.Intr.SetHandler(d.IRQ(), func(int) { completions <- struct{}{} })
	m.Intr.SetMask(d.IRQ(), false)

	d.SetFaultHook(func(write bool, sector, count uint32) DiskFault {
		if write {
			return DiskFault{Err: errMedia, TornSectors: 1}
		}
		return DiskFault{}
	})

	wbuf := make([]byte, 3*SectorSize)
	for i := range wbuf {
		wbuf[i] = byte(i%251 + 1)
	}
	w := &DiskReq{Write: true, Sector: 8, Count: 3, Buf: wbuf}
	d.Submit(w)
	<-completions
	if got := d.Reap(); got != w || got.Err != errMedia {
		t.Fatalf("torn write completion: %+v", got)
	}

	// Reads are not faulted by this hook; read back and check the tear:
	// first sector on the platter, the rest untouched (zero).
	rbuf := make([]byte, 3*SectorSize)
	r := &DiskReq{Sector: 8, Count: 3, Buf: rbuf}
	d.Submit(r)
	<-completions
	if got := d.Reap(); got != r || got.Err != nil {
		t.Fatalf("read completion: %+v", got)
	}
	if !bytes.Equal(rbuf[:SectorSize], wbuf[:SectorSize]) {
		t.Error("torn write lost its prefix sector")
	}
	if !bytes.Equal(rbuf[SectorSize:], make([]byte, 2*SectorSize)) {
		t.Error("torn write leaked past its prefix")
	}

	// Hook removed: the same write goes through whole.
	d.SetFaultHook(nil)
	d.Submit(w)
	<-completions
	if got := d.Reap(); got.Err != nil {
		t.Fatalf("write after hook removal: %v", got.Err)
	}
}

func twoNICs(t *testing.T) (*EtherWire, *NIC, *NIC, [6]byte, [6]byte) {
	t.Helper()
	wire := NewEtherWire()
	icA, icB := NewIntrController(), NewIntrController()
	t.Cleanup(icA.stop)
	t.Cleanup(icB.stop)
	macA := [6]byte{2, 0, 0, 0, 0, 1}
	macB := [6]byte{2, 0, 0, 0, 0, 2}
	a := NewNIC(icA, IRQNIC0, macA)
	b := NewNIC(icB, IRQNIC0, macB)
	wire.Attach(a)
	wire.Attach(b)
	return wire, a, b, macA, macB
}

// Corrupt flips exactly one byte, never in the Ethernet header;
// Duplicate delivers twice; Reorder swaps adjacent frames.
func TestWireFaultVerdicts(t *testing.T) {
	wire, a, b, macA, macB := twoNICs(t)

	wire.SetFaultHook(func(frameLen int) WireFault {
		return WireFault{Corrupt: true, CorruptOff: 0}
	})
	orig := frame(macB, macA, "payload-under-test")
	a.Transmit(orig)
	got := b.RxPop()
	if got == nil {
		t.Fatal("corrupted frame not delivered")
	}
	if !bytes.Equal(got[:EtherHdrLen], orig[:EtherHdrLen]) {
		t.Error("corruption touched the Ethernet header")
	}
	diff := 0
	for i := EtherHdrLen; i < len(orig); i++ {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption flipped %d payload bytes, want 1", diff)
	}

	wire.SetFaultHook(func(frameLen int) WireFault {
		return WireFault{Duplicate: true}
	})
	a.Transmit(frame(macB, macA, "twice"))
	for copies := 0; copies < 2; copies++ {
		if f := b.RxPop(); f == nil || string(f[EtherHdrLen:]) != "twice" {
			t.Fatalf("duplicate delivery %d: %q", copies, f)
		}
	}
	if b.RxPop() != nil {
		t.Fatal("duplicate delivered more than twice")
	}

	reorderFirst := true
	wire.SetFaultHook(func(frameLen int) WireFault {
		f := WireFault{Reorder: reorderFirst}
		reorderFirst = false
		return f
	})
	a.Transmit(frame(macB, macA, "first"))
	if b.RxPop() != nil {
		t.Fatal("reordered frame delivered immediately")
	}
	a.Transmit(frame(macB, macA, "second"))
	if f := b.RxPop(); f == nil || string(f[EtherHdrLen:]) != "second" {
		t.Fatalf("want second frame first, got %q", f)
	}
	if f := b.RxPop(); f == nil || string(f[EtherHdrLen:]) != "first" {
		t.Fatalf("held frame not flushed, got %q", f)
	}
}

// The NIC receive hook drops frames exactly like a ring overrun,
// charging the NIC's drop counter, and stops when removed.
func TestNICRxFaultHook(t *testing.T) {
	_, a, b, macA, macB := twoNICs(t)

	b.SetRxFaultHook(func() bool { return true })
	a.Transmit(frame(macB, macA, "overrun"))
	if b.RxPop() != nil {
		t.Fatal("frame delivered through a forced overrun")
	}
	if _, _, drops := b.Stats(); drops != 1 {
		t.Errorf("rxDrops = %d, want 1", drops)
	}

	b.SetRxFaultHook(nil)
	a.Transmit(frame(macB, macA, "through"))
	if f := b.RxPop(); f == nil || string(f[EtherHdrLen:]) != "through" {
		t.Fatalf("frame lost after hook removal: %q", f)
	}
}

// The timer fault hook suppresses exactly the ticks it claims: with
// every tick suppressed no interrupt fires, and removal restores them.
func TestTimerFaultHookSuppression(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	tm := NewTimer(ic, IRQTimer)
	fired := make(chan struct{}, 64)
	ic.SetHandler(IRQTimer, func(int) {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	ic.SetMask(IRQTimer, false)

	tm.SetFaultHook(func(tick uint64) bool { return true })
	tm.Start(time.Millisecond)
	defer tm.Stop()
	select {
	case <-fired:
		t.Fatal("interrupt fired with every tick suppressed")
	case <-time.After(20 * time.Millisecond):
	}

	tm.SetFaultHook(nil)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("timer dead after hook removal")
	}
}

// lossHook is a seeded frame-drop hook: each frame is dropped with
// probability p.  The wire serializes hook calls, so the private RNG
// needs no lock.
func lossHook(p float64, seed int64) WireFaultHook {
	rng := rand.New(rand.NewSource(seed))
	return func(int) WireFault { return WireFault{Drop: rng.Float64() < p} }
}

// All the fault knobs are safe to toggle mid-traffic: transmitters,
// two SetFaultHook togglers and SetRxFaultHook race here, and -race must
// stay quiet while every frame is still either delivered or counted.
func TestFaultKnobTogglingUnderTraffic(t *testing.T) {
	wire, a, b, macA, macB := twoNICs(t)

	const frames = 400
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		f := frame(macB, macA, "traffic")
		for i := 0; i < frames; i++ {
			a.Transmit(f)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			wire.SetFaultHook(lossHook(0.5, int64(i)))
			wire.SetFaultHook(nil)
		}
	}()
	go func() {
		defer wg.Done()
		hook := func(frameLen int) WireFault { return WireFault{Duplicate: true} }
		for i := 0; i < 100; i++ {
			wire.SetFaultHook(hook)
			wire.SetFaultHook(nil)
		}
	}()
	go func() {
		defer wg.Done()
		hook := func() bool { return true }
		for i := 0; i < 100; i++ {
			b.SetRxFaultHook(hook)
			b.SetRxFaultHook(nil)
		}
	}()
	wg.Wait()

	// Conservation: every transmitted frame was delivered, dropped by
	// loss, dropped by the rx hook, or duplicated — the ring plus the
	// counters account for all of them.
	delivered := 0
	for b.RxPop() != nil {
		delivered++
	}
	tx, wireDrops := wire.Stats()
	rx, _, rxDrops := b.Stats()
	if tx != frames {
		t.Errorf("wire counted %d transmits, want %d", tx, frames)
	}
	if uint64(delivered) != rx {
		t.Errorf("ring had %d frames, NIC counted %d", delivered, rx)
	}
	if rx+wireDrops+rxDrops < frames {
		t.Errorf("frames unaccounted for: rx=%d wireDrops=%d rxDrops=%d < tx=%d",
			rx, wireDrops, rxDrops, frames)
	}
}
