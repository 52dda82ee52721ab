package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/hw"
	"oskit/internal/lmm"
)

func testEnv(t *testing.T) (*Env, *hw.Machine) {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "t", MemBytes: 4 << 20})
	t.Cleanup(m.Halt)
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x10000, 2<<20, LMMFlagDMA, 0); err != nil {
		t.Fatal(err)
	}
	arena.AddFree(0x10000, 2<<20)
	return NewEnv(m, arena), m
}

func TestEnvDefaultMemAlloc(t *testing.T) {
	e, m := testEnv(t)
	addr, buf, ok := e.MemAlloc(4096, MemDMA, 4096)
	if !ok {
		t.Fatal("MemAlloc failed")
	}
	if addr%4096 != 0 {
		t.Fatalf("alignment violated: %#x", addr)
	}
	if addr >= hw.DMALimit {
		t.Fatalf("DMA memory above limit: %#x", addr)
	}
	// The slice aliases machine memory.
	buf[0] = 0xAB
	if m.Mem.MustSlice(addr, 1)[0] != 0xAB {
		t.Fatal("MemAlloc slice does not alias physical memory")
	}
	e.MemFree(addr, 4096)
	if _, _, ok := e.MemAlloc(1, 0, 0); !ok {
		t.Fatal("alloc after free failed")
	}
}

func TestEnvMemAllocOverride(t *testing.T) {
	// Full separability: a client with its own allocator overrides the
	// service; no arena needed at all (§4.2.1).
	m := hw.NewMachine(hw.Config{MemBytes: 1 << 20})
	defer m.Halt()
	e := NewEnv(m, nil)
	if _, _, ok := e.MemAlloc(64, 0, 0); ok {
		t.Fatal("default alloc with no arena should fail")
	}
	backing := make([]byte, 1024)
	e.MemAlloc = func(size uint32, flags MemFlags, align uint32) (hw.PhysAddr, []byte, bool) {
		return 0x42, backing[:size], true
	}
	addr, buf, ok := e.MemAlloc(64, 0, 0)
	if !ok || addr != 0x42 || len(buf) != 64 {
		t.Fatal("override not used")
	}
}

func TestEnvLogBottomsOutInPutchar(t *testing.T) {
	e, _ := testEnv(t)
	var out bytes.Buffer
	e.Putchar = func(c byte) { out.WriteByte(c) }
	e.Log("value %d", 7)
	if out.String() != "value 7\n" {
		t.Fatalf("Log wrote %q", out.String())
	}
}

func TestSleepRecWakeupBeforeSleep(t *testing.T) {
	r := NewSleepRec()
	r.Wakeup()
	r.Wakeup() // coalesces; must not block or panic
	done := make(chan struct{})
	go func() {
		r.Sleep()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("pending wakeup lost")
	}
}

func TestSleepRecBlocksUntilWakeup(t *testing.T) {
	r := NewSleepRec()
	done := make(chan struct{})
	go func() {
		r.Sleep()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Sleep returned without Wakeup")
	case <-time.After(20 * time.Millisecond):
	}
	r.Wakeup()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wakeup did not unblock sleeper")
	}
}

func TestClockCallouts(t *testing.T) {
	c := NewClock()
	var mu sync.Mutex
	var fired []string
	add := func(s string) func() {
		return func() { mu.Lock(); fired = append(fired, s); mu.Unlock() }
	}
	c.After(0, add("a")) // next tick
	c.After(2, add("b"))
	cancelC := c.After(1, add("c"))
	cancelC()
	cancelC() // idempotent

	c.Tick()
	mu.Lock()
	got := strings.Join(fired, "")
	mu.Unlock()
	if got != "a" {
		t.Fatalf("after tick 1: %q", got)
	}
	c.Tick()
	c.Tick()
	mu.Lock()
	got = strings.Join(fired, "")
	mu.Unlock()
	if got != "ab" {
		t.Fatalf("after tick 3: %q (cancelled callout ran?)", got)
	}
	if c.Ticks() != 3 {
		t.Fatalf("Ticks = %d", c.Ticks())
	}
}

func TestClockCalloutOrderAmongEqualDeadlines(t *testing.T) {
	c := NewClock()
	var mu sync.Mutex
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.After(0, func() { mu.Lock(); order = append(order, i); mu.Unlock() })
	}
	c.Tick()
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("callout order = %v", order)
		}
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	b := com.NewMemBuf(make([]byte, 8))
	r.Register(com.BlkIOIID, b)
	if b.Refs() != 2 {
		t.Fatalf("registry did not take a reference: %d", b.Refs())
	}
	got := r.First(com.BlkIOIID)
	if got != com.IUnknown(b) {
		t.Fatal("First returned wrong object")
	}
	got.Release()
	all := r.Lookup(com.BlkIOIID)
	if len(all) != 1 {
		t.Fatalf("Lookup returned %d objects", len(all))
	}
	all[0].Release()
	if r.First(com.SocketIID) != nil {
		t.Fatal("lookup of unregistered interface succeeded")
	}
	if !r.Unregister(com.BlkIOIID, b) {
		t.Fatal("Unregister failed")
	}
	if r.Unregister(com.BlkIOIID, b) {
		t.Fatal("double Unregister succeeded")
	}
	if b.Refs() != 1 {
		t.Fatalf("reference leak through registry: %d", b.Refs())
	}
}

func TestComponentLockWrapSleep(t *testing.T) {
	var l ComponentLock
	rec := NewSleepRec()
	sleep := l.WrapSleep(func(r *SleepRec) { r.Sleep() })

	l.Enter()
	entered := make(chan struct{})
	go func() {
		// A second thread can enter the component while the first is
		// blocked in sleep.
		l.Enter()
		close(entered)
		rec.Wakeup()
		l.Leave()
	}()
	sleep(rec) // releases the lock, blocks, re-acquires
	select {
	case <-entered:
	default:
		t.Fatal("lock was not released across the blocking call")
	}
	l.Leave()
}

func TestComponentLockUnlocked(t *testing.T) {
	var l ComponentLock
	l.Enter()
	ran := false
	l.Unlocked(func() {
		// While fn runs, a second thread can enter the component.
		entered := make(chan struct{})
		go func() {
			l.Enter()
			l.Leave()
			close(entered)
		}()
		<-entered
		ran = true
	})
	if !ran {
		t.Fatal("Unlocked did not run fn")
	}
	// After Unlocked returns the lock is held again.
	if l.mu.TryLock() {
		t.Fatal("lock not held after Unlocked returned")
	}
	l.Leave()
}

func TestInventoryConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Inventory {
		if seen[c.Name] {
			t.Errorf("duplicate inventory component %q", c.Name)
		}
		seen[c.Name] = true
	}
	var buf bytes.Buffer
	WriteStructure(&buf, map[string][]string{"freebsd_net": {"freebsd_glue"}})
	out := buf.String()
	for _, want := range []string{"Client Operating System", "encapsulated", "freebsd_net", "lmm", "-> [freebsd_glue]"} {
		if !strings.Contains(out, want) {
			t.Errorf("structure dump missing %q", want)
		}
	}
}

func TestEnvClockIntegration(t *testing.T) {
	e, _ := testEnv(t)
	var mu sync.Mutex
	n := 0
	cancel := e.AfterTicks(1, func() { mu.Lock(); n++; mu.Unlock() })
	defer cancel()
	e.Clock().Tick()
	e.Clock().Tick()
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Fatalf("callout ran %d times", n)
	}
	if e.Ticks() != 2 {
		t.Fatalf("Ticks = %d", e.Ticks())
	}
}
