package hw

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

func TestPhysMemSlice(t *testing.T) {
	m := NewPhysMem(4096)
	if m.Size() != 4096 {
		t.Fatalf("Size = %d", m.Size())
	}
	b, err := m.Slice(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "hello")
	b2 := m.MustSlice(100, 5)
	if string(b2) != "hello" {
		t.Fatalf("aliasing broken: %q", b2)
	}
	if _, err := m.Slice(4090, 16); err == nil {
		t.Fatal("out-of-range Slice succeeded")
	}
	// The returned slice is capacity-capped: appending must not scribble
	// on adjacent physical memory.
	b3 := m.MustSlice(0, 8)
	b3 = append(b3, 0xEE)
	if m.MustSlice(8, 1)[0] == 0xEE {
		t.Fatal("append through a physical slice corrupted neighbouring memory")
	}
}

func TestIntrDispatchAndMask(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	got := make(chan int, 8)
	ic.SetHandler(5, func(line int) { got <- line })

	// Masked: raising must hold the interrupt pending, not deliver it.
	ic.Raise(5)
	select {
	case <-got:
		t.Fatal("masked interrupt delivered")
	case <-time.After(20 * time.Millisecond):
	}

	// Unmask: the held interrupt fires.
	ic.SetMask(5, false)
	select {
	case l := <-got:
		if l != 5 {
			t.Fatalf("line = %d", l)
		}
	case <-time.After(time.Second):
		t.Fatal("pending interrupt never delivered after unmask")
	}
	if ic.Count(5) != 1 {
		t.Fatalf("Count = %d", ic.Count(5))
	}
}

func TestIntrDisableExcludesHandlers(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	var mu sync.Mutex
	var fired []int
	done := make(chan struct{}, 4)
	ic.SetHandler(3, func(line int) {
		mu.Lock()
		fired = append(fired, line)
		mu.Unlock()
		done <- struct{}{}
	})
	ic.SetMask(3, false)

	ic.Disable()
	ic.Disable() // nested, donor save_flags/cli style
	ic.Raise(3)
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 0 {
		t.Fatal("handler ran inside a Disable section")
	}
	ic.Enable()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	n = len(fired)
	mu.Unlock()
	if n != 0 {
		t.Fatal("handler ran with the outer Disable still held")
	}
	ic.Enable()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("handler never ran after Enable")
	}
}

func TestIntrHandlerSeesInIntr(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	res := make(chan bool, 1)
	ic.SetHandler(7, func(int) { res <- ic.InIntr() })
	ic.SetMask(7, false)
	if ic.InIntr() {
		t.Fatal("InIntr true at process level")
	}
	ic.Raise(7)
	if !<-res {
		t.Fatal("InIntr false inside a handler")
	}
}

// TestInIntrIsPerCallerOnOneCPU: while a handler is parked mid-flight on
// a 1-CPU machine, a process-level thread is not "the handler" — InIntr
// is false for it and its Disable waits for the handler to return.  (One
// per-machine flag answered true here; donor save_flags/cli then skipped
// the Disable and sleep_on's DropAll released the handler's exclusion.)
func TestInIntrIsPerCallerOnOneCPU(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark() // before stop, which waits for the handler to return
	ic.SetHandler(4, func(int) {
		close(entered)
		<-release
	})
	ic.SetMask(4, false)
	ic.Raise(4)
	<-entered // the handler holds CPU 0's exclusion and is blocked

	if ic.InIntr() {
		t.Fatal("process level reported InIntr while a handler was parked mid-flight")
	}
	excluded := make(chan struct{})
	go func() {
		ic.Disable()
		close(excluded)
		ic.Enable()
	}()
	select {
	case <-excluded:
		t.Fatal("Disable entered a section while a handler was still running")
	case <-time.After(20 * time.Millisecond):
	}
	unpark()
	select {
	case <-excluded:
	case <-time.After(time.Second):
		t.Fatal("Disable never entered after the handler returned")
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestIntrOwnerChecksAreExact: only the thread that holds the Disable
// section may Enable or DropAll it; a foreign thread panics at its own
// call and leaves the owner's nesting intact through repeated
// DropAll/RestoreAll round trips.
func TestIntrOwnerChecksAreExact(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	foreign := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			mustPanic(t, what+" from a thread that holds no section", f)
		}()
		<-done
	}

	ic.Disable()
	ic.Disable()
	foreign("Enable", ic.Enable)
	foreign("DropAll", func() { ic.DropAll() })
	if n := ic.DropAll(); n != 2 {
		t.Fatalf("depth after foreign misuse = %d, want 2", n)
	}
	foreign("Enable", ic.Enable) // nobody holds it now
	ic.RestoreAll(2)
	ic.Disable()
	if n := ic.DropAll(); n != 3 {
		t.Fatalf("depth after RestoreAll(2)+Disable = %d, want 3", n)
	}
	ic.RestoreAll(3)
	foreign("DropAll", func() { ic.DropAll() })
	for i := 0; i < 3; i++ {
		ic.Enable()
	}
	mustPanic(t, "a fourth Enable", ic.Enable)
	if n := ic.DropAllHeld(); n != 0 {
		t.Fatalf("DropAllHeld after the full unwind = %d, want 0", n)
	}
}

func TestIntrCoalescing(t *testing.T) {
	// Edge-triggered coalescing: multiple raises of an already-pending
	// line may merge, but at least one dispatch must follow the last
	// raise, and draining devices in the handler is therefore correct.
	ic := NewIntrController()
	defer ic.stop()
	var mu sync.Mutex
	count := 0
	ic.SetHandler(2, func(int) { mu.Lock(); count++; mu.Unlock() })
	// Raise repeatedly while masked: these must coalesce to one.
	for i := 0; i < 100; i++ {
		ic.Raise(2)
	}
	ic.SetMask(2, false)
	deadline := time.After(time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c >= 1 {
			if c > 1 {
				t.Fatalf("masked raises did not coalesce: %d dispatches", c)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("no dispatch")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestTimerManualTick(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	tm := NewTimer(ic, IRQTimer)
	fired := make(chan struct{}, 4)
	ic.SetHandler(IRQTimer, func(int) { fired <- struct{}{} })
	ic.SetMask(IRQTimer, false)
	tm.Tick()
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("manual tick not delivered")
	}
}

func TestTimerFreeRun(t *testing.T) {
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
	tm.Start(time.Millisecond)
	defer tm.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-fired:
		case <-time.After(time.Second):
			t.Fatal("free-running timer stopped ticking")
		}
	}
	tm.Stop()
	tm.Stop() // idempotent
}

func TestSerialLoop(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	a := NewSerialPort(ic, IRQCom1)
	b := NewSerialPort(ic, IRQCom2)
	ConnectSerial(a, b)
	ic.SetMask(IRQCom1, false)
	ic.SetMask(IRQCom2, false)

	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	n, err = a.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
}

func TestSerialWriterAndEOF(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	s := NewSerialPort(ic, IRQCom1)
	var captured bytes.Buffer
	var capMu sync.Mutex
	s.AttachWriter(writerFunc(func(p []byte) (int, error) {
		capMu.Lock()
		defer capMu.Unlock()
		return captured.Write(p)
	}))
	if _, err := s.Write([]byte("console out")); err != nil {
		t.Fatal(err)
	}
	capMu.Lock()
	got := captured.String()
	capMu.Unlock()
	if got != "console out" {
		t.Fatalf("captured %q", got)
	}

	s.Inject([]byte("in"))
	s.CloseInput()
	buf := make([]byte, 8)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "in" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if _, err := s.Read(buf); err != io.EOF {
		t.Fatalf("after CloseInput: %v", err)
	}
	if s.Buffered() != 0 {
		t.Fatal("Buffered after drain")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func frame(dst, src [6]byte, payload string) []byte {
	f := make([]byte, EtherHdrLen+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	copy(f[EtherHdrLen:], payload)
	return f
}

func TestEtherDelivery(t *testing.T) {
	sw := NewEtherSwitch()
	icA, icB := NewIntrController(), NewIntrController()
	defer icA.stop()
	defer icB.stop()
	macA := [6]byte{2, 0, 0, 0, 0, 1}
	macB := [6]byte{2, 0, 0, 0, 0, 2}
	a := NewNIC(icA, IRQNIC0, macA)
	b := NewNIC(icB, IRQNIC0, macB)
	sw.Attach(a)
	sw.Attach(b)
	gotIRQ := make(chan struct{}, 8)
	icB.SetHandler(IRQNIC0, func(int) { gotIRQ <- struct{}{} })
	icB.SetMask(IRQNIC0, false)

	a.Transmit(frame(macB, macA, "hello b"))
	select {
	case <-gotIRQ:
	case <-time.After(time.Second):
		t.Fatal("no receive interrupt")
	}
	f := b.RxPop()
	if f == nil || string(f[EtherHdrLen:]) != "hello b" {
		t.Fatalf("RxPop = %q", f)
	}
	if b.RxPop() != nil {
		t.Fatal("ring should be empty")
	}

	// Frames for other stations are filtered out...
	a.Transmit(frame([6]byte{2, 9, 9, 9, 9, 9}, macA, "not for b"))
	// ...broadcast is accepted...
	a.Transmit(frame(BroadcastMAC, macA, "bcast"))
	select {
	case <-gotIRQ:
	case <-time.After(time.Second):
		t.Fatal("no broadcast interrupt")
	}
	f = b.RxPop()
	if f == nil || string(f[EtherHdrLen:]) != "bcast" {
		t.Fatalf("broadcast RxPop = %q", f)
	}
	// ...and promiscuous mode accepts everything.
	b.SetPromiscuous(true)
	a.Transmit(frame([6]byte{2, 9, 9, 9, 9, 9}, macA, "snoop"))
	<-gotIRQ
	if f = b.RxPop(); f == nil || string(f[EtherHdrLen:]) != "snoop" {
		t.Fatalf("promisc RxPop = %q", f)
	}

	// The sender does not hear its own frames.
	if a.RxPop() != nil {
		t.Fatal("sender received its own frame")
	}
}

func TestEtherLossInjection(t *testing.T) {
	sw := NewEtherSwitch()
	sw.SetFaultHook(lossHook(1.0, 42)) // drop everything
	ic := NewIntrController()
	defer ic.stop()
	macA := [6]byte{2, 0, 0, 0, 0, 1}
	macB := [6]byte{2, 0, 0, 0, 0, 2}
	a := NewNIC(ic, IRQNIC0, macA)
	b := NewNIC(ic, IRQNIC1, macB)
	sw.Attach(a)
	sw.Attach(b)
	for i := 0; i < 10; i++ {
		a.Transmit(frame(macB, macA, "x"))
	}
	if st := sw.Stats(); st.TxFrames != 10 || st.FaultDrops != 10 {
		t.Fatalf("stats = %d tx, %d drops", st.TxFrames, st.FaultDrops)
	}
	if b.RxPop() != nil {
		t.Fatal("frame survived 100% loss")
	}
}

func TestEtherRingOverrun(t *testing.T) {
	sw := NewEtherSwitch()
	ic := NewIntrController()
	defer ic.stop()
	macA := [6]byte{2, 0, 0, 0, 0, 1}
	macB := [6]byte{2, 0, 0, 0, 0, 2}
	a := NewNIC(ic, IRQNIC0, macA)
	b := NewNIC(ic, IRQNIC1, macB) // IRQ masked: nothing drains the ring
	sw.Attach(a)
	sw.Attach(b)
	for i := 0; i < EtherRingLen+10; i++ {
		a.Transmit(frame(macB, macA, "x"))
	}
	rx, _, drops := b.Stats()
	if rx != EtherRingLen || drops != 10 {
		t.Fatalf("rx=%d drops=%d", rx, drops)
	}
}

func TestDiskReadWrite(t *testing.T) {
	m := NewMachine(Config{Name: "t", MemBytes: 1 << 20})
	defer m.Halt()
	d := m.AttachDisk(NewDisk(128))
	completions := make(chan struct{}, 8)
	m.Intr.SetHandler(d.IRQ(), func(int) { completions <- struct{}{} })
	m.Intr.SetMask(d.IRQ(), false)

	wbuf := make([]byte, 2*SectorSize)
	copy(wbuf, "sector data here")
	w := &DiskReq{Write: true, Sector: 10, Count: 2, Buf: wbuf}
	d.Submit(w)
	<-completions
	r1 := d.Reap()
	if r1 != w || !r1.Done || r1.Err != nil {
		t.Fatalf("write completion: %+v", r1)
	}

	rbuf := make([]byte, 2*SectorSize)
	r := &DiskReq{Sector: 10, Count: 2, Buf: rbuf}
	d.Submit(r)
	<-completions
	if got := d.Reap(); got != r || got.Err != nil {
		t.Fatalf("read completion: %+v", got)
	}
	if !bytes.Equal(rbuf, wbuf) {
		t.Fatal("read back differs from write")
	}

	// Out-of-range access completes with an error, not a crash.
	bad := &DiskReq{Sector: 1000, Count: 1, Buf: make([]byte, SectorSize)}
	d.Submit(bad)
	<-completions
	if got := d.Reap(); got.Err == nil {
		t.Fatal("out-of-range request succeeded")
	}
	if d.Reap() != nil {
		t.Fatal("phantom completion")
	}
}

func TestMachineAssembly(t *testing.T) {
	sw := NewEtherSwitch()
	m := NewMachine(Config{Name: "box"})
	defer m.Halt()
	if m.Mem.Size() != 32<<20 {
		t.Fatalf("default memory = %d", m.Mem.Size())
	}
	nic := m.AttachNIC(sw, [6]byte{2, 0, 0, 0, 0, 9}, ModelNE2K)
	if nic.IRQ() != IRQNIC0 {
		t.Fatalf("nic irq = %d", nic.IRQ())
	}
	m.AttachDisk(NewDisk(64))

	if len(m.Bus.Find(VendorRealtek, DevNE2K)) != 1 {
		t.Fatal("NE2K not on bus")
	}
	if len(m.Bus.Find(VendorMisc, DevIDE)) != 1 {
		t.Fatal("disk not on bus")
	}
	if len(m.Bus.Find(VendorMisc, DevSerial)) != 2 {
		t.Fatal("serial ports not on bus")
	}
	if len(m.Bus.Find(0xdead, 0xbeef)) != 0 {
		t.Fatal("phantom device")
	}
}

func TestDropAllRestoresFullNesting(t *testing.T) {
	ic := NewIntrController()
	defer ic.stop()
	fired := make(chan struct{}, 4)
	ic.SetHandler(6, func(int) { fired <- struct{}{} })
	ic.SetMask(6, false)

	// Nest three levels (cross-component spl stacking), then DropAll:
	// handlers must run while "asleep".
	ic.Disable()
	ic.Disable()
	ic.Disable()
	depth := ic.DropAll()
	if depth != 3 {
		t.Fatalf("depth = %d", depth)
	}
	ic.Raise(6)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("handler blocked although nesting was dropped")
	}
	// Restore: the full exclusion is back.
	ic.RestoreAll(depth)
	ic.Raise(6)
	select {
	case <-fired:
		t.Fatal("handler ran with exclusion restored")
	case <-time.After(20 * time.Millisecond):
	}
	// Unwind the original three levels.
	ic.Enable()
	ic.Enable()
	ic.Enable()
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("handler never ran after unwind")
	}
	// Misuse panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DropAll without Disable did not panic")
			}
		}()
		ic.DropAll()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RestoreAll(0) did not panic")
			}
		}()
		ic.RestoreAll(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Enable without Disable did not panic")
			}
		}()
		ic.Enable()
	}()
}

// DropAllHeld is the conditional form donor sleep paths use when they
// cannot know whether the caller entered with exclusion held (the SMP
// glue's SleepOn): a no-op returning 0 for a non-owner, a full DropAll
// for the owner.
func TestIntrDropAllHeld(t *testing.T) {
	ic := NewIntrController()
	// Not the owner: nothing to drop, nothing released.
	if n := ic.DropAllHeld(); n != 0 {
		t.Fatalf("DropAllHeld without Disable = %d, want 0", n)
	}
	// Owner with nesting: the whole depth comes off and is restorable.
	ic.Disable()
	ic.Disable()
	ic.Disable()
	n := ic.DropAllHeld()
	if n != 3 {
		t.Fatalf("DropAllHeld under 3 Disables = %d, want 3", n)
	}
	// Fully dropped: another thread can take the exclusion now.
	done := make(chan struct{})
	go func() {
		ic.Disable()
		ic.Enable()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("exclusion still held after DropAllHeld")
	}
	ic.RestoreAll(n)
	for i := 0; i < n; i++ {
		ic.Enable()
	}
	// Balanced again: a second DropAllHeld sees no ownership.
	if n := ic.DropAllHeld(); n != 0 {
		t.Fatalf("DropAllHeld after balanced unwind = %d, want 0", n)
	}
}
