package hw

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// NumIRQs is the number of interrupt vectors.  Lines 0–15 model the PC
// PIC pair the donor drivers were written against; lines 16–31 are
// message-signaled-style vectors AllocLine hands out to multi-queue
// devices (one per NIC receive ring on SMP machines).
const NumIRQs = 32

// IntrHandler is an interrupt-level handler.  Per the execution model of
// §4.7.4, a handler runs to completion, never blocks, and must not call
// Disable (interrupts are already disabled while it runs).
type IntrHandler func(line int)

// cpuCtx is one logical CPU's dispatch context: its own interrupt-enable
// flag (cliMu), its own pending set, and its own dispatcher goroutine.
// On a 1-CPU machine there is exactly one of these and the model is the
// original two-level §4.7.4 machine, unchanged.
type cpuCtx struct {
	index int

	// cliMu is held whenever this CPU's interrupts are disabled: either
	// by a process-level Disable section (CPU 0 only — the boot CPU owns
	// the legacy process-level cli) or for the duration of one handler.
	// Sections nest per thread of control (BSD spl semantics), so the
	// context tracks the owning goroutine.  cliOwner is zeroed on every
	// release, so it never outlives the goroutine it names (see GoID).
	cliMu    sync.Mutex
	cliOwner atomic.Uint64
	cliNest  int

	// dispatcher is the identity of this CPU's dispatcher goroutine, the
	// only goroutine that ever runs this CPU's handlers: published before
	// the constructor returns, zeroed when the dispatcher exits.
	dispatcher atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond
	pending uint64
	stopped bool
	done    chan struct{}
}

// IntrController is the machine's interrupt controller plus the CPUs'
// interrupt-enable flags.
//
// Model (paper §4.7.4, extended): there are two levels of execution.
// Process-level activities run on ordinary goroutines and may block at
// well-defined points.  Interrupt-level activities run one at a time
// *per CPU* on that CPU's dispatcher; each interrupt line has a CPU
// affinity (default CPU 0), and Raise signals the owning CPU's
// dispatcher — the simulator's IPI.  Handlers on distinct CPUs run
// concurrently; all the legacy single-CPU invariants hold per CPU.
//
// Process level excludes CPU 0's interrupt level with Disable/Enable
// (cli/sti); these nest, like the save_flags/cli/restore_flags idiom in
// donor code.  Components that keep the giant-lock discipline therefore
// keep all their lines on CPU 0 (the default affinity); only components
// with their own fine-grained locking (the SMP network stack) spread
// lines across CPUs.
type IntrController struct {
	cpus []*cpuCtx

	// Shared line state.  masked is atomic so dispatchers can evaluate
	// their wait predicate without the line lock; RMW updates go through
	// lmu.
	// handlers is written under lmu (AllocLine reads it with allocated)
	// and, like affinity, read lock-free by Raise and the dispatchers.
	lmu       sync.Mutex
	masked    atomic.Uint64
	handlers  [NumIRQs]atomic.Pointer[IntrHandler]
	affinity  [NumIRQs]atomic.Int32 // line -> CPU index
	allocated uint64                // AllocLine bitmap (lines 16..31)

	counts [NumIRQs]atomic.Uint64

	stopOnce sync.Once
}

// NewIntrController starts a 1-CPU controller with every line masked and
// no handlers installed.
func NewIntrController() *IntrController { return NewIntrControllerCPUs(1) }

// NewIntrControllerCPUs starts a controller with ncpu logical CPUs (one
// dispatcher each).  All lines start masked, handler-free, and
// affinitized to CPU 0.
func NewIntrControllerCPUs(ncpu int) *IntrController {
	if ncpu < 1 {
		ncpu = 1
	}
	ic := &IntrController{}
	ic.masked.Store(1<<NumIRQs - 1)
	started := make(chan struct{}, ncpu)
	for i := 0; i < ncpu; i++ {
		c := &cpuCtx{index: i, done: make(chan struct{})}
		c.cond = sync.NewCond(&c.mu)
		ic.cpus = append(ic.cpus, c)
		go ic.dispatch(c, started)
	}
	// Wait for every dispatcher to publish its identity, so InIntr is
	// accurate from the first delivered interrupt on.
	for i := 0; i < ncpu; i++ {
		<-started
	}
	return ic
}

// NumCPUs reports the number of logical CPUs (dispatch contexts).
func (ic *IntrController) NumCPUs() int { return len(ic.cpus) }

// SetAffinity routes a line's interrupts to one CPU's dispatcher.
// Configure affinity at boot, before the line's device raises traffic; a
// pending interrupt raised under the old affinity is still dispatched
// there.  Out-of-range CPUs clamp to CPU 0.
func (ic *IntrController) SetAffinity(line, cpu int) {
	if line < 0 || line >= NumIRQs {
		return
	}
	if cpu < 0 || cpu >= len(ic.cpus) {
		cpu = 0
	}
	ic.affinity[line].Store(int32(cpu))
}

// Affinity reports the CPU a line is routed to.
func (ic *IntrController) Affinity(line int) int {
	return int(ic.affinity[line].Load())
}

// AllocLine hands out an unused message-signaled-style vector (line ≥ 16)
// for a device queue, or -1 when all are taken.
func (ic *IntrController) AllocLine() int {
	ic.lmu.Lock()
	defer ic.lmu.Unlock()
	for line := 16; line < NumIRQs; line++ {
		if ic.allocated&(1<<line) == 0 && ic.handlers[line].Load() == nil {
			ic.allocated |= 1 << line
			return line
		}
	}
	return -1
}

// Raise asserts an interrupt line.  It may be called from any context —
// device goroutines, interrupt handlers, process level.  Raising a line
// that is already pending is idempotent (edge-triggered coalescing, as on
// the PC's PIC): drivers must drain their device in the handler.  The
// signal lands on the line's affinity CPU — a cross-CPU Raise is the
// simulator's IPI.
func (ic *IntrController) Raise(line int) {
	if line < 0 || line >= NumIRQs {
		return
	}
	c := ic.cpus[ic.affinity[line].Load()]
	c.mu.Lock()
	c.pending |= 1 << line
	c.mu.Unlock()
	c.cond.Signal()
}

// SetHandler installs (or, with nil, removes) the handler for a line.
func (ic *IntrController) SetHandler(line int, h IntrHandler) {
	if line < 0 || line >= NumIRQs {
		return
	}
	ic.lmu.Lock()
	if h == nil {
		ic.handlers[line].Store(nil)
	} else {
		ic.handlers[line].Store(&h)
	}
	ic.lmu.Unlock()
}

// SetMask masks (true) or unmasks (false) one line.  Pending interrupts on
// a masked line are held, not dropped.
func (ic *IntrController) SetMask(line int, masked bool) {
	if line < 0 || line >= NumIRQs {
		return
	}
	ic.lmu.Lock()
	m := ic.masked.Load()
	if masked {
		m |= 1 << line
	} else {
		m &^= 1 << line
	}
	ic.masked.Store(m)
	ic.lmu.Unlock()
	for _, c := range ic.cpus {
		c.cond.Signal()
	}
}

// Disable enters a critical section excluding CPU 0's interrupt handlers
// (cli).  Sections nest within one thread of control; distinct threads
// exclude each other, matching per-CPU EFLAGS.IF plus the one-at-a-time
// process-level model of §4.7.4.  On a multi-CPU machine this is the
// legacy discipline: it excludes only the boot CPU, where every line
// without an explicit affinity is dispatched.
func (ic *IntrController) Disable() {
	c := ic.cpus[0]
	id := goid()
	if c.cliOwner.Load() == id {
		c.cliNest++ // nested: only the owner touches cliNest
		return
	}
	c.cliMu.Lock()
	c.cliOwner.Store(id)
	c.cliNest = 1
}

// DropAll releases the calling thread's *entire* Disable nesting,
// returning the depth for RestoreAll.  Donor sleep paths that are
// entered at raised spl need this — BSD's tsleep (sio) and the native
// Linux image's sleep_on drop to spl0/sti completely before blocking,
// however deeply the caller nested its exclusion, or the completion
// handler could never dispatch.
func (ic *IntrController) DropAll() int {
	c := ic.cpus[0]
	if c.cliOwner.Load() != goid() {
		panic("hw: DropAll by a thread that holds no Disable section")
	}
	n := c.cliNest
	c.cliNest = 0
	c.cliOwner.Store(0)
	c.cliMu.Unlock()
	return n
}

// RestoreAll re-acquires the exclusion at the depth DropAll returned.
func (ic *IntrController) RestoreAll(n int) {
	if n <= 0 {
		panic("hw: RestoreAll of a non-positive depth")
	}
	c := ic.cpus[0]
	c.cliMu.Lock()
	c.cliOwner.Store(goid())
	c.cliNest = n
}

// Enable leaves the innermost Disable section (sti).  Only the thread
// that disabled may enable: an unbalanced or foreign-thread Enable panics
// at the violating call instead of corrupting the owner's nesting depth.
func (ic *IntrController) Enable() {
	c := ic.cpus[0]
	if c.cliOwner.Load() != goid() {
		panic("hw: Enable by a thread that holds no Disable section")
	}
	c.cliNest--
	if c.cliNest == 0 {
		c.cliOwner.Store(0)
		c.cliMu.Unlock()
	}
}

// InIntr reports whether the caller is running at interrupt level.  The
// question is per-caller on every machine size: a dispatcher goroutine
// runs nothing but its CPU's handlers, so the answer is true exactly on
// one — and process-level code scheduled while a handler is parked
// mid-flight (or running on another CPU) is not misclassified as it.
func (ic *IntrController) InIntr() bool {
	return ic.dispatcherCPU(goid()) != nil
}

// dispatcherCPU returns the CPU whose dispatcher goroutine has identity
// id, or nil when id names a process-level thread.
func (ic *IntrController) dispatcherCPU(id uint64) *cpuCtx {
	for _, c := range ic.cpus {
		if c.dispatcher.Load() == id {
			return c
		}
	}
	return nil
}

// Count returns how many times a line's handler has been dispatched.
func (ic *IntrController) Count(line int) uint64 {
	if line < 0 || line >= NumIRQs {
		return 0
	}
	return ic.counts[line].Load()
}

// stop terminates every dispatcher (machine halt) and waits for them.
func (ic *IntrController) stop() {
	ic.stopOnce.Do(func() {
		for _, c := range ic.cpus {
			c.mu.Lock()
			c.stopped = true
			c.mu.Unlock()
			c.cond.Signal()
		}
		for _, c := range ic.cpus {
			<-c.done
		}
	})
}

// dispatch is one CPU's interrupt level: one handler at a time, lowest
// pending unmasked line first, each excluded against that CPU's cli
// sections.
func (ic *IntrController) dispatch(c *cpuCtx, started chan<- struct{}) {
	defer close(c.done)
	id := goid()
	c.dispatcher.Store(id)
	defer c.dispatcher.Store(0)
	started <- struct{}{}
	for {
		c.mu.Lock()
		for !c.stopped && c.pending&^ic.masked.Load() == 0 {
			c.cond.Wait()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		ready := c.pending &^ ic.masked.Load()
		line := bits.TrailingZeros64(ready)
		c.pending &^= 1 << line
		c.mu.Unlock()
		h := ic.handlers[line].Load()
		ic.counts[line].Add(1)

		c.cliMu.Lock()
		c.cliOwner.Store(id) // handlers may themselves nest Disable
		c.cliNest = 1
		if h != nil {
			(*h)(line)
		}
		c.cliNest = 0
		c.cliOwner.Store(0)
		c.cliMu.Unlock()
	}
}

// GoID returns the calling goroutine's identity — the simulator's
// thread of control, read the way a real kernel reads a CPU-local pointer
// register (a few nanoseconds where a getg stub exists).  SMP-aware glue
// layers key per-thread state (current process pointers) by it.
//
// Contract: the value is opaque, non-zero, stable for the goroutine's
// whole life (across stack growth and rescheduling), and distinct among
// goroutines that are alive at the same time.  It is NOT unique over
// time — the runtime may hand a dead goroutine's identity to a new one —
// so whoever stores an id must erase it before the goroutine it names
// can exit: cliOwner is zeroed on release, a cpuCtx's dispatcher when its
// goroutine exits, and freebsd/glue's curprocs entry by Enter's restore
// (a thread asleep in the glue keeps its entry, since it cannot exit).
func GoID() uint64 { return goid() }
