// Package bsdglue emulates the 4.4BSD kernel-internal environment for the
// kit's encapsulated FreeBSD- and NetBSD-derived components (network
// stack, file system, character drivers) — the BSD half of the paper's
// §4.7 technique.
//
// It provides, over nothing but the kit's Env services:
//
//   - curproc manufactured on demand at each component entry point, one
//     per thread, kept by the thread until it leaves the component, so
//     a block changes nothing about it (§4.7.5);
//   - BSD's sleep/wakeup with its original event hash table design, each
//     component instance getting its own private table, blocking bottoms
//     out in one sleep record per sleeping process (§4.7.6);
//   - spl interrupt-priority mapping: the kit does not require the client
//     OS to provide IPLs (§4.5), so splnet/splhigh map to the single
//     interrupt-exclusion level, and splx restores it (sio's; the stack
//     and the file system run under their own locks, §4.7.4);
//   - the BSD kernel malloc with all three of its special properties,
//     layered on the client memory service via a dynamically grown
//     allocation table (§4.7.7) — see malloc.go;
//   - timeout/untimeout over the kit's callout clock.
package bsdglue

import (
	"sync"

	"oskit/internal/com"
	"oskit/internal/core"
	"oskit/internal/hw"
	"oskit/internal/stats"
)

// Proc is the donor's process structure, pruned to the fields the
// encapsulated code touches: identification plus the sleep linkage.
//
// A Proc is recycled, the way BSD reuses a proc slot: Enter takes one
// from the glue's free list and its restore puts it back, so a crossing
// allocates nothing, and each Proc keeps the one sleep record and the
// one restore func it was built with.
type Proc struct {
	Pid   int
	Comm  string
	WChan uint32 //oskit:guardedby Glue.slpMu  event the proc is sleeping on; 0 when running
	WMesg string //oskit:guardedby Glue.slpMu  sleep message ("biowait", "netio", …)

	rec   *core.SleepRec
	qnext *Proc //oskit:guardedby Glue.slpMu  slpque hash chain

	leave    func() //oskit:initonly  Enter's restore, bound to this Proc
	tid      uint64 //oskit:guardedby Glue.curMu  thread that entered with it
	prev     *Proc  //oskit:guardedby Glue.curMu  that thread's current process before
	nextFree *Proc  //oskit:guardedby Glue.curMu  free-list linkage
}

// slpqueSize is BSD's sleep-queue hash size (a power of two).
const slpqueSize = 128

// sleepLock guards the sleep-queue hash table and the per-proc sleep
// linkage (WChan/WMesg/qnext).  Cross-package leaf of the documented SMP
// lock hierarchy (DESIGN.md §13): any stack lock may be held when a wait
// is prepared or a wakeup posted, so nothing may be acquired under it.
//
//oskit:lockrank 80
type sleepLock struct{ sync.Mutex }

// mallocLock guards one Malloc instance's buckets and page table.  Leaf
// like sleepLock; the two are never held together (the allocator never
// sleeps, wakeup never allocates).
//
//oskit:lockrank 81
type mallocLock struct{ sync.Mutex }

// Glue is one component instance's BSD environment.  Distinct components
// (the network stack, the file system) each get their own Glue, which is
// what makes the sleep hash table per-component rather than system-wide,
// and what lets a client lock the two components independently (§4.7.4).
type Glue struct {
	env *core.Env

	// curprocs is the current process, one per thread of control inside
	// the component, on every machine: a thread that blocks in another
	// component keeps its own even while others enter and sleep here.
	// It is keyed by hw.GoID, which is unique only among live goroutines:
	// Enter's restore is the one place an entry is erased, when its
	// thread leaves the component, before the goroutine can exit and
	// its identity be handed to another.  A sleeping thread keeps its
	// entry: it can neither run nor exit until it is woken.
	curMu     sync.Mutex
	curprocs  map[uint64]*Proc //oskit:guardedby curMu  thread identity -> current process
	nextPid   int              //oskit:guardedby curMu
	freeProcs *Proc            //oskit:guardedby curMu  procs no thread is using

	slpMu  sleepLock
	slpque [slpqueSize]*Proc //oskit:guardedby slpMu

	// Malloc is the component's BSD kernel allocator.
	Malloc *Malloc
}

// New builds a BSD environment over env.  Its spl calls are real
// interrupt exclusion on any machine: the giant discipline of sio, the
// one component that relies on the glue for it.  A component that
// carries its own lock (Stack.mu, net/locks.go; the file system's
// fsLock) calls no spl.  The allocator's statistics are exported as a
// "bsd_malloc" com.Stats set in env's services registry.
func New(env *core.Env) *Glue {
	g := &Glue{env: env, curprocs: map[uint64]*Proc{}}
	g.Malloc = newMalloc(g)
	set := stats.NewSet("bsd_malloc")
	g.Malloc.initStats(set)
	env.Registry.Register(com.StatsIID, set)
	set.Release()
	return g
}

// Env returns the kit environment underneath.
func (g *Glue) Env() *core.Env { return g.env }

// Enter manufactures the calling thread's current process for one
// component entry point (§4.7.5), returning the restore to run when the
// call leaves the component.  The process comes from the glue's free
// list and the restore returns it there.
func (g *Glue) Enter(comm string) func() {
	id := hw.GoID()
	g.curMu.Lock()
	p := g.freeProcs
	if p == nil {
		p = &Proc{}
		p.leave = func() { g.leave(p) }
	} else {
		g.freeProcs = p.nextFree
		p.nextFree = nil
	}
	g.nextPid++
	p.Pid, p.Comm, p.tid = g.nextPid, comm, id
	p.prev = g.curprocs[id]
	g.curprocs[id] = p
	g.curMu.Unlock()
	return p.leave
}

// leave is Enter's restore: the thread's previous current process comes
// back and p goes to the free list.
func (g *Glue) leave(p *Proc) {
	g.curMu.Lock()
	if p.prev == nil {
		delete(g.curprocs, p.tid)
	} else {
		g.curprocs[p.tid] = p.prev
	}
	p.prev = nil
	p.nextFree = g.freeProcs
	g.freeProcs = p
	g.curMu.Unlock()
}

// curproc returns the calling thread's current process.
func (g *Glue) curproc() *Proc {
	g.curMu.Lock()
	defer g.curMu.Unlock()
	return g.curprocs[hw.GoID()]
}

// --- spl emulation.
//
// Donor idiom: s := splnet(); …; splx(s).  Token 1 means "this call
// disabled interrupts and splx must re-enable"; token 0 means the level
// was already high (nested spl or interrupt context) and splx is a no-op
// for the exclusion itself.

// Splnet raises to network-interrupt protection level.
func (g *Glue) Splnet() int { return g.splraise() }

// Splhigh blocks everything.
func (g *Glue) Splhigh() int { return g.splraise() }

// Splx restores the level saved by a raise.
func (g *Glue) Splx(s int) {
	if s == 1 {
		g.env.IntrEnable()
	}
}

func (g *Glue) splraise() int {
	if g.env.InIntr() {
		return 0
	}
	g.env.IntrDisable()
	return 1
}

// --- sleep/wakeup (§4.7.6).
//
// This is BSD's original structure: a hash table of sleeping processes
// keyed by an arbitrary 32-bit "event" (the address of the thing waited
// on).  Where BSD's scheduler fields used to be, each proc now carries
// one kit sleep record.

func slpHash(event uint32) int { return int((event >> 3) % slpqueSize) }

// Tsleep blocks the current process on event.  Donor contract: entered
// at raised spl (interrupts disabled); the process is enqueued
// atomically, interrupts are enabled *completely* while blocked, and the
// call returns at the full spl depth it was entered at.  The current
// process stays the thread's across the block (§4.7.5).
func (g *Glue) Tsleep(event uint32, wmesg string) {
	p := g.SleepPrepare(event, wmesg)
	depth := g.env.Machine.Intr.DropAll()
	g.SleepCommit(p)
	g.env.Machine.Intr.RestoreAll(depth)
}

// SleepPrepare is the first half of a two-phase sleep: it enqueues the
// current process on event's sleep queue and returns it, without
// blocking.  The caller may still hold its condition locks here; a
// Wakeup that lands between the phases is remembered by the sleep
// record, so the sequence
//
//	p := g.SleepPrepare(ev, "msg")   // condition locks held
//	unlock(...)                      // open the race window…
//	g.SleepCommit(p)                 // …which the record closes
//	relock(...); recheck condition   // spurious returns allowed
//
// has no lost-wakeup window — what a component under its own lock uses
// in place of "enqueue at raised spl, then drop to spl0" (§4.7.6).
func (g *Glue) SleepPrepare(event uint32, wmesg string) *Proc {
	p := g.curproc()
	if p == nil {
		// Donor code always has a process; a missing one is a glue
		// bug, and BSD would have oopsed on curproc->p_wchan too.
		g.env.Panic("bsdglue: tsleep(%#x) with no current process", event)
		return nil
	}
	if p.rec == nil {
		p.rec = g.env.SleepInit()
	}
	g.slpMu.Lock()
	p.WChan = event
	p.WMesg = wmesg
	h := slpHash(event)
	p.qnext = g.slpque[h]
	g.slpque[h] = p
	g.slpMu.Unlock()
	return p
}

// SleepCommit is the second half: it blocks until the wakeup.  The
// caller must have dropped every lock it holds first, its component
// lock included.  The thread's current process is left in place: no
// other thread reads it, and the sleeper cannot exit while blocked.
func (g *Glue) SleepCommit(p *Proc) {
	g.env.Sleep(p.rec)
	g.slpMu.Lock()
	p.WChan = 0
	p.WMesg = ""
	g.slpMu.Unlock()
}

// Wakeup wakes every process sleeping on event.  Callable from any
// context, at any spl: the sleep queue has its own lock.
func (g *Glue) Wakeup(event uint32) {
	// Unlink under the queue lock; post the wakeups after dropping it
	// (env.Wakeup is an interposable service — never call out under a
	// lock).  The records collect on the stack unless an unusual number
	// of processes sleep on one event.
	var stack [8]*core.SleepRec
	recs := stack[:0]
	g.slpMu.Lock()
	h := slpHash(event)
	var prev *Proc
	p := g.slpque[h]
	for p != nil {
		next := p.qnext
		if p.WChan == event {
			if prev == nil {
				g.slpque[h] = next
			} else {
				prev.qnext = next
			}
			p.qnext = nil
			recs = append(recs, p.rec)
		} else {
			prev = p
		}
		p = next
	}
	g.slpMu.Unlock()
	for _, r := range recs {
		g.env.Wakeup(r)
	}
}

// SleepersOn counts processes sleeping on event (tests).
func (g *Glue) SleepersOn(event uint32) int {
	g.slpMu.Lock()
	defer g.slpMu.Unlock()
	n := 0
	for p := g.slpque[slpHash(event)]; p != nil; p = p.qnext {
		if p.WChan == event {
			n++
		}
	}
	return n
}

// --- time.

// Ticks returns the BSD `ticks` variable.
func (g *Glue) Ticks() uint64 { return g.env.Ticks() }

// Timeout schedules fn(arg) after delta ticks at interrupt level,
// returning the handle for Untimeout.
func (g *Glue) Timeout(fn func(arg any), arg any, delta uint64) func() {
	return g.env.AfterTicks(delta, func() { fn(arg) })
}

// Untimeout cancels a Timeout handle (idempotent).
func (g *Glue) Untimeout(handle func()) {
	if handle != nil {
		handle()
	}
}

// Printf is the donor console printf.
func (g *Glue) Printf(format string, args ...any) {
	g.env.Log("bsd: "+format, args...)
}
