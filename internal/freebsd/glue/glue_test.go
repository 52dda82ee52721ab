package bsdglue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"oskit/internal/com"
	"oskit/internal/core"
	"oskit/internal/hw"
	"oskit/internal/lmm"
)

// raceEnabled is set by race_test.go under -race, whose instrumentation
// allocates.
var raceEnabled bool

func testGlue(t *testing.T) *Glue { return testGlueCPUs(t, 0) }

// testGlueCPUs is testGlue on a cpus-CPU machine (0: the platform
// default).
func testGlueCPUs(t *testing.T, cpus int) *Glue {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 16 << 20, CPUs: cpus})
	t.Cleanup(m.Halt)
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x100000, 8<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	arena.AddFree(0x100000, 8<<20)
	return New(core.NewEnv(m, arena))
}

func TestEnterManufacturesCurproc(t *testing.T) {
	g := testGlue(t)
	if g.curproc() != nil {
		t.Fatal("curproc before entry")
	}
	restore := g.Enter("read")
	if p := g.curproc(); p == nil || p.Comm != "read" || p.Pid == 0 {
		t.Fatalf("curproc = %+v", p)
	}
	restore()
	if g.curproc() != nil {
		t.Fatal("curproc after restore")
	}
}

func TestTsleepWakeup(t *testing.T) {
	g := testGlue(t)
	const event = 0xdeadbe00
	woke := make(chan struct{})
	go func() {
		restore := g.Enter("sleeper")
		defer restore()
		s := g.Splnet()
		g.Tsleep(event, "testwait")
		g.Splx(s)
		close(woke)
	}()
	waitSleepers(t, g, event, 1)
	// Wakeup on a different event is a no-op.
	s := g.Splnet()
	g.Wakeup(event + 8)
	g.Splx(s)
	select {
	case <-woke:
		t.Fatal("woken by wrong event")
	case <-time.After(20 * time.Millisecond):
	}
	s = g.Splnet()
	g.Wakeup(event)
	g.Splx(s)
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatal("wakeup lost")
	}
}

// TestEnterAllocs pins that a component crossing costs the Go heap
// nothing: the Proc and its restore come back from the glue's free list.
func TestEnterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := testGlueCPUs(t, 1)
	if n := testing.AllocsPerRun(100, func() { g.Enter("probe")() }); n != 0 {
		t.Fatalf("Enter+restore allocates %v times, want 0", n)
	}
}

// TestCurprocSurvivesAnotherThreadsSleep is §4.7.5 across a sleep on one
// CPU: thread A enters and blocks outside the glue (in another
// component, say); thread B enters and sleeps here at raised spl.  A's
// current process stays its own, while B sleeps and after B was woken,
// and B wakes with the process it entered with.
func TestCurprocSurvivesAnotherThreadsSleep(t *testing.T) {
	g := testGlueCPUs(t, 1)
	const event = 0x2000
	entered, resume, read := make(chan *Proc), make(chan struct{}), make(chan *Proc)
	go func() {
		restore := g.Enter("A")
		defer restore()
		entered <- g.curproc()
		for range 2 {
			<-resume // blocked outside the glue
			read <- g.curproc()
		}
	}()
	pA := <-entered

	bDone := make(chan [2]*Proc, 1)
	go func() {
		var got [2]*Proc // B's curproc before and after its sleep
		defer func() { bDone <- got }()
		restore := g.Enter("B")
		defer restore()
		got[0] = g.curproc()
		s := g.Splnet()
		g.Tsleep(event, "B")
		g.Splx(s)
		got[1] = g.curproc()
	}()
	waitSleepers(t, g, event, 1)
	resume <- struct{}{}
	if got := <-read; got != pA {
		t.Fatalf("while B sleeps, A's curproc = %+v, want %+v", got, pA)
	}
	s := g.Splnet()
	g.Wakeup(event)
	g.Splx(s)
	if b := <-bDone; b[0] == nil || b[1] != b[0] {
		t.Fatalf("B's curproc after its sleep = %+v, want %+v", b[1], b[0])
	}
	resume <- struct{}{}
	if got := <-read; got != pA {
		t.Fatalf("after B woke, A's curproc = %+v, want %+v", got, pA)
	}
}

// waitSleepers polls until n processes sleep on event.
func waitSleepers(t *testing.T, g *Glue, event uint32, n int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		s := g.Splnet()
		got := g.SleepersOn(event)
		g.Splx(s)
		if got == n {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("%d sleepers on %#x, want %d", got, event, n)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWakeupWakesAllOnEvent runs several client threads through the
// component using the §4.7.4 recipe: a component-wide lock taken before
// entering, released across blocking calls (core.ComponentLock.WrapSleep)
// — the encapsulated code itself is not thread safe.
func TestWakeupWakesAllOnEvent(t *testing.T) {
	g := testGlue(t)
	var lock core.ComponentLock
	g.Env().Sleep = lock.WrapSleep(g.Env().Sleep)

	const event = 0x1000
	var wg sync.WaitGroup
	// Multiple "processes" sleeping on the same event, plus one on a
	// colliding hash bucket that must stay asleep.
	otherEvent := uint32(event + slpqueSize*8) // same bucket, different event
	otherWoke := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lock.Enter()
			defer lock.Leave()
			restore := g.Enter("s")
			defer restore()
			s := g.Splnet()
			g.Tsleep(event, "multi")
			g.Splx(s)
		}()
	}
	go func() {
		lock.Enter()
		defer lock.Leave()
		restore := g.Enter("other")
		defer restore()
		s := g.Splnet()
		g.Tsleep(otherEvent, "other")
		g.Splx(s)
		close(otherWoke)
	}()
	deadline := time.After(2 * time.Second)
	for {
		lock.Enter()
		s := g.Splnet()
		n := g.SleepersOn(event) + g.SleepersOn(otherEvent)
		g.Splx(s)
		lock.Leave()
		if n == 4 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sleepers never enqueued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	lock.Enter()
	s := g.Splnet()
	g.Wakeup(event)
	g.Splx(s)
	lock.Leave()
	wg.Wait()
	select {
	case <-otherWoke:
		t.Fatal("hash-colliding event was woken")
	default:
	}
	lock.Enter()
	s = g.Splnet()
	if g.SleepersOn(otherEvent) != 1 {
		t.Fatal("colliding sleeper lost from queue")
	}
	g.Wakeup(otherEvent)
	g.Splx(s)
	lock.Leave()
	<-otherWoke
}

func TestSplNesting(t *testing.T) {
	g := testGlue(t)
	s1 := g.Splnet()
	s2 := g.Splhigh() // nested raise
	g.Splx(s2)
	g.Splx(s1)
	if s1 != 1 || s2 != 1 {
		t.Fatalf("spl tokens = %d, %d", s1, s2)
	}
}

// TestDisciplineFollowsTheMachine pins the one constructor: spl is real
// interrupt exclusion on any machine size (sio's splhigh must stay real
// cli on 4 CPUs), and the current process is the entering thread's own.
func TestDisciplineFollowsTheMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		cpus int
	}{
		{"New/1cpu", 1},
		{"New/4cpu", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGlueCPUs(t, tc.cpus)
			clis := 0
			disable := g.env.IntrDisable
			g.env.IntrDisable = func() { clis++; disable() }
			restore := g.Enter("probe")
			s := g.Splnet()
			g.Splx(s)
			other := make(chan *Proc)
			go func() { other <- g.curproc() }()
			perThread := g.curproc() != nil && <-other == nil
			restore()
			if s != 1 || clis != 1 || !perThread {
				t.Fatalf("on %d CPUs: spl token %d, %d cli, per-thread curproc %v; want token 1, 1 cli and per-thread curproc",
					tc.cpus, s, clis, perThread)
			}
		})
	}
}

func TestTimeoutUntimeout(t *testing.T) {
	g := testGlue(t)
	var mu sync.Mutex
	var got []any
	h1 := g.Timeout(func(arg any) { mu.Lock(); got = append(got, arg); mu.Unlock() }, "a", 1)
	h2 := g.Timeout(func(arg any) { mu.Lock(); got = append(got, arg); mu.Unlock() }, "b", 1)
	g.Untimeout(h2)
	_ = h1
	g.Env().Clock().Tick()
	g.Env().Clock().Tick()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("timeouts fired: %v", got)
	}
}

func TestMallocThreeProperties(t *testing.T) {
	g := testGlue(t)
	m := g.Malloc

	// Property 1: natural alignment by size class.
	for _, size := range []uint32{1, 16, 17, 100, 128, 129, 1000, 2048, 4096} {
		addr, buf, ok := m.Alloc(size)
		if !ok {
			t.Fatalf("Alloc(%d) failed", size)
		}
		_, bs := bucketFor(size)
		if addr&(bs-1) != 0 {
			t.Errorf("Alloc(%d) at %#x not aligned to class size %d", size, addr, bs)
		}
		if uint32(len(buf)) != bs {
			t.Errorf("Alloc(%d) usable size %d, class %d", size, len(buf), bs)
		}
		// Property 3: size recoverable from address alone.
		if got, ok := m.SizeOf(addr); !ok || got != bs {
			t.Errorf("SizeOf(%#x) = %d, %v (want %d)", addr, got, ok, bs)
		}
		m.Free(addr)
	}

	// Property 2: exact powers of two waste nothing — 32 blocks of 128
	// bytes consume exactly one 4096-byte page of client memory.  Use a
	// fresh allocator so earlier refills don't hide the page draw.
	g2 := New(g.Env())
	m = g2.Malloc
	avail0 := g.Env().Arena().Avail(0)
	var addrs []hw.PhysAddr
	for i := 0; i < 32; i++ {
		addr, _, ok := m.Alloc(128)
		if !ok {
			t.Fatal("Alloc failed")
		}
		addrs = append(addrs, addr)
	}
	if used := avail0 - g.Env().Arena().Avail(0); used != PageSize {
		t.Errorf("32×128B consumed %d bytes of client memory, want exactly %d", used, PageSize)
	}
	for _, a := range addrs {
		m.Free(a)
	}

	// Large allocations round-trip through whole pages.
	addr, buf, ok := m.Alloc(3 * PageSize)
	if !ok || len(buf) != 3*PageSize {
		t.Fatal("large Alloc failed")
	}
	if got, _ := m.SizeOf(addr); got != 3*PageSize {
		t.Errorf("large SizeOf = %d", got)
	}
	m.Free(addr)
	if m.LiveBytes() != 0 {
		t.Errorf("LiveBytes = %d after freeing all", m.LiveBytes())
	}
}

func TestMallocTableGrowsWithDispersion(t *testing.T) {
	g := testGlue(t)
	m := g.Malloc
	a1, _, _ := m.Alloc(64)
	dense := m.TableBytes()
	_ = a1
	// Force the client to hand back a widely dispersed page by carving a
	// distant hole: allocate far memory directly from the arena, then
	// have malloc grab the next page beyond it.
	arena := g.Env().Arena()
	hole, ok := arena.AllocGen(PageSize, 0, PageShift, 0, 6<<20, ^uint32(0))
	if !ok {
		t.Fatal("arena carve failed")
	}
	arena.Free(hole, PageSize) // free it again: next page-aligned fit is still low
	// Simulate dispersion directly: a large allocation placed high.
	addr2, ok := arena.AllocGen(PageSize, 0, PageShift, 0, 7<<20, ^uint32(0))
	if !ok {
		t.Fatal("high alloc failed")
	}
	// Teach the table about the high page the way allocLarge would.
	m.ensure(addr2 >> PageShift)
	if m.TableBytes() <= dense {
		t.Fatalf("table did not grow: %d <= %d", m.TableBytes(), dense)
	}
	if m.Growths() < 2 {
		t.Fatalf("growths = %d", m.Growths())
	}
	arena.Free(addr2, PageSize)
}

// Property: for any interleaving of Alloc/Free, SizeOf is consistent and
// no two live blocks overlap (the table keeps them disjoint).
func TestMallocInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := hw.NewMachine(hw.Config{MemBytes: 16 << 20})
		defer m.Halt()
		arena := lmm.NewArena()
		if err := arena.AddRegion(0x100000, 8<<20, 0, 0); err != nil {
			return false
		}
		arena.AddFree(0x100000, 8<<20)
		g := New(core.NewEnv(m, arena))
		type blk struct {
			addr hw.PhysAddr
			size uint32
		}
		var live []blk
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				size := uint32(op%6000) + 1
				addr, _, ok := g.Malloc.Alloc(size)
				if !ok {
					continue
				}
				class := size
				if got, ok := g.Malloc.SizeOf(addr); !ok || got < size {
					return false
				} else {
					class = got
				}
				for _, l := range live {
					if addr < l.addr+l.size && l.addr < addr+class {
						return false
					}
				}
				live = append(live, blk{addr, class})
			} else {
				i := int(op) % len(live)
				g.Malloc.Free(live[i].addr)
				live = append(live[:i], live[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCOMErrorTranslatesEveryErrno: each donor errno leaves as a COM
// error with the same text, and anything else passes unchanged.
func TestCOMErrorTranslatesEveryErrno(t *testing.T) {
	for _, e := range []Errno{ENOENT, EIO, EBADF, ENOMEM, EINVAL, ENOSPC,
		EADDRINUSE, EADDRNOTAVAIL, ECONNRESET, ETIMEDOUT, ENAMETOOLONG} {
		c, ok := COMError(e).(com.Error)
		if !ok || c.Error() != e.Error() {
			t.Errorf("COMError(%d) = %v, want a com.Error with text %q", int(e), COMError(e), e.Error())
		}
	}
	if COMError(nil) != nil || COMError(com.ErrPipe) != com.ErrPipe {
		t.Error("COMError changed nil or a COM error")
	}
	if n := testing.AllocsPerRun(100, func() { _ = COMError(EIO) }); n != 0 && !raceEnabled {
		t.Errorf("COMError allocates %v times", n)
	}
}
