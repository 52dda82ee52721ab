// Package guardedtest seeds the //oskit:guardedby shapes: accesses
// under Lock/defer Unlock/RLock are clean, unlocked accesses to
// package-level state report at the access, wrong-instance locks do not
// satisfy sibling guards while backpointer and type-qualified guards
// accept any lock of the owner type, helper functions inherit lock
// requirements that are discharged at call sites or reported in exported
// entry points, and goroutine bodies start from an empty lockset.
package guardedtest

import "sync"

// ring is the single-guard shape: every access to buf/count holds mu.
type ring struct {
	mu    sync.Mutex
	buf   []int //oskit:guardedby mu
	count int   //oskit:guardedby mu
}

func (r *ring) pushLocked(v int) {
	r.mu.Lock()
	r.buf = append(r.buf, v)
	r.count++
	r.mu.Unlock()
}

func (r *ring) pushDeferred(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = append(r.buf, v)
	r.count++
}

var gring ring

// BumpGlobal loses the lock: package-level state reports at the access.
func BumpGlobal() {
	gring.count++ // want `write to ring\.count needs gring\.mu held exclusively \(//oskit:guardedby mu\)`
}

// PeekGlobal reads unlocked.
func PeekGlobal() int {
	return gring.count // want `read of ring\.count needs gring\.mu held \(//oskit:guardedby mu\)`
}

// GlobalLocked is the clean version of the two above.
func GlobalLocked(v int) {
	gring.mu.Lock()
	defer gring.mu.Unlock()
	gring.buf = append(gring.buf, v)
	gring.count++
}

// MixedInstances holds a's lock but touches b: sibling guards demand the
// exact instance (the TIME_WAIT-recycle bug shape).
func MixedInstances(a, b *ring) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.count++ // want `exported MixedInstances reaches ring\.count \(//oskit:guardedby mu\) without mu held exclusively`
}

// bumpLocked documents the "caller holds r.mu" convention: the unguarded
// access becomes a requirement discharged at every call site.
func (r *ring) bumpLocked() { r.count++ }

func (r *ring) bumpTwice() {
	r.bumpLocked()
	r.bumpLocked()
}

// BumpSafely discharges bumpTwice's inherited requirement two levels up.
func BumpSafely(r *ring) {
	r.mu.Lock()
	r.bumpTwice()
	r.mu.Unlock()
}

// CallerForgets propagates bumpLocked's requirement into an exported
// function, where callers outside the package can never meet it.
func CallerForgets(r *ring) {
	r.bumpLocked() // want `exported CallerForgets reaches ring\.count \(//oskit:guardedby mu\) without mu held exclusively`
}

// CallSiteReport calls through a caller-local binding: the exact
// instance is untrackable past this frame, so the obligation degrades
// to its type-qualified form and surfaces at the exported boundary.
func CallSiteReport() {
	r := &gring
	r.bumpLocked() // want `exported CallSiteReport reaches ring\.count \(//oskit:guardedby mu\) without a ring\.mu held exclusively`
}

// ringHolder reaches bumpLocked through a non-local binding (a global),
// where the exact path stays expressible: the unmet requirement is
// reported at the call site itself, naming the precise lock.
var ringHolder = &gring

func globalCallNoLock() {
	ringHolder.bumpLocked() // want `call to bumpLocked needs ringHolder\.mu held exclusively: the callee accesses ring\.count \(//oskit:guardedby mu\)`
}

// DriveGlobalCall keeps globalCallNoLock reachable so its site report
// fires (unexported and uncalled would stay silent).
func DriveGlobalCall() { globalCallNoLock() }

// table is the RLock-for-read shape.
type table struct {
	mu sync.RWMutex
	m  map[int]int //oskit:guardedby mu
}

var gtable = table{m: map[int]int{}}

func ReadShared(k int) int {
	gtable.mu.RLock()
	defer gtable.mu.RUnlock()
	return gtable.m[k]
}

func WriteExclusive(k, v int) {
	gtable.mu.Lock()
	defer gtable.mu.Unlock()
	gtable.m[k] = v
}

// WriteShared writes under a read lock: writes need the exclusive side.
func WriteShared(k, v int) {
	gtable.mu.RLock()
	gtable.m[k] = v // want `write to table\.m needs gtable\.mu held exclusively \(//oskit:guardedby mu\)`
	gtable.mu.RUnlock()
}

// DeleteUnlocked hits the mutating-builtin path.
func DeleteUnlocked(k int) {
	delete(gtable.m, k) // want `write to table\.m needs gtable\.mu held exclusively`
}

// SpawnRacy holds the lock, but the goroutine body runs after release:
// function literals start from an empty lockset.
func SpawnRacy() {
	gring.mu.Lock()
	defer gring.mu.Unlock()
	go func() {
		gring.count++ // want `write to ring\.count needs gring\.mu held exclusively`
	}()
}

// Calling a method through a pointer-typed field only loads the
// pointer: a read of the field, never a write — even with a pointer
// receiver on the method.
type sink struct{ n int }

func (k *sink) bump() { k.n++ }

type holder struct {
	mu  sync.Mutex
	out *sink //oskit:guardedby mu
}

var gholder = holder{out: &sink{}}

func UseSinkLocked() {
	gholder.mu.Lock()
	gholder.out.bump()
	gholder.mu.Unlock()
}

func UseSinkUnlocked() {
	gholder.out.bump() // want `read of holder\.out needs gholder\.mu held \(//oskit:guardedby mu\)`
}

// stack/pcb are the network stack's shape: one stack lock guards the pcb
// list and, through each pcb's backpointer, the pcb's own state.
type stack struct {
	mu    sync.Mutex
	pcbs  []*pcb //oskit:guardedby mu
	first *pcb
}

type pcb struct {
	mu    sync.Mutex
	s     *stack
	state uint32  //oskit:guardedby s.mu
	seq   uint32  //oskit:guardedby mu
	buf   sockbuf //oskit:guardedby mu
}

// sockbuf's owner lives on another object with no backpointer: any
// holder of a pcb.mu qualifies (the type-qualified form).
type sockbuf struct {
	cc int //oskit:guardedby pcb.mu
}

func (sb *sockbuf) drain(n int) { sb.cc -= n }

// Abort writes through the backpointer guard: any held stack.mu matches
// the owner type.
func (s *stack) Abort(tp *pcb) {
	s.mu.Lock()
	tp.state = 9 // ok: s.mu is a stack.mu, the owner of tp.s.mu
	s.mu.Unlock()
}

// State reads through the backpointer with no lock held.
func State(tp *pcb) uint32 {
	return tp.state // want `exported State reaches pcb\.state \(//oskit:guardedby s\.mu\) without s\.mu held`
}

// Consume reaches sockbuf state through its owning pcb's lock: the
// method call on the guarded field and the type-qualified cc guard are
// both satisfied by tp.mu.
func (tp *pcb) Consume(n int) {
	tp.mu.Lock()
	tp.buf.drain(n) // ok: tp.mu satisfies drain's "a pcb.mu holder"
	tp.buf.cc -= n  // ok: type-qualified guard matched by owner type
	tp.mu.Unlock()
}

func (tp *pcb) ConsumeUnlocked(n int) {
	tp.buf.drain(n) // want `exported ConsumeUnlocked reaches pcb\.buf \(//oskit:guardedby mu\) without mu held exclusively` `exported ConsumeUnlocked reaches sockbuf\.cc \(//oskit:guardedby pcb\.mu\) without a pcb\.mu held exclusively`
}

// AliasLocked shows alias canonicalization: tp.mu and s.first.mu are the
// same lock once the local alias is expanded.
func (s *stack) AliasLocked() {
	tp := s.first
	tp.mu.Lock()
	s.first.seq++ // ok: canonical path s.first.mu == tp.mu
	tp.mu.Unlock()
}

// sweepStates ranges the pcb list through locals the callers cannot
// name: the obligation degrades to its type-qualified form and travels
// up, where CountActive's stack lock discharges it.
func (s *stack) sweepStates() int {
	n := 0
	for _, p := range s.pcbs {
		if p.state > 0 {
			n++
		}
	}
	return n
}

func CountActive(s *stack) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepStates()
}

// SweepNoLock leaves the degraded obligation unmet all the way to the
// exported boundary.
func SweepNoLock(s *stack) int {
	return s.sweepStates() // want `exported SweepNoLock reaches stack\.pcbs \(//oskit:guardedby mu\) without mu held` `exported SweepNoLock reaches pcb\.state \(//oskit:guardedby s\.mu\) without a stack\.mu held`
}
