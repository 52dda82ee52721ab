// Fixtures for the lock-hierarchy rule: ranked wrapper locks in a
// three-level stack/pcb/demux shape (the freebsd/net hierarchy before it
// folded into one stack lock), with in-order acquisitions that must stay
// silent, out-of-order and same-rank acquisitions that must be flagged,
// a waived same-rank nesting, and a ranked core.ComponentLock wrapper
// entered in and out of order.
package lockhooktest

import (
	"sync"

	"oskit/internal/core"
)

//oskit:lockrank 10
type stackLock struct{ sync.Mutex }

//oskit:lockrank 20
type pcbLock struct{ sync.Mutex }

//oskit:lockrank 30
type demuxLock struct{ sync.RWMutex }

type stack struct {
	mu      stackLock
	demuxMu demuxLock
}

type pcb struct {
	mu pcbLock
}

// registerInOrder climbs the hierarchy: 10, then 20, then 30.  Silent.
func registerInOrder(s *stack, tp *pcb) {
	s.mu.Lock()
	tp.mu.Lock()
	s.demuxMu.Lock()
	s.demuxMu.Unlock()
	tp.mu.Unlock()
	s.mu.Unlock()
}

// lookupDropThenLock is the fast-path shape: the demux lock is released
// before the pcb lock is taken, so no ordering edge exists.  Silent.
func lookupDropThenLock(s *stack, tp *pcb) {
	s.demuxMu.RLock()
	s.demuxMu.RUnlock()
	tp.mu.Lock()
	tp.mu.Unlock()
}

// invertStackUnderPcb takes the stack lock (10) under a pcb lock (20) —
// the inversion the hierarchy exists to outlaw.
func invertStackUnderPcb(s *stack, tp *pcb) {
	tp.mu.Lock()
	s.mu.Lock() // want `acquiring s\.mu \(lockrank 10\) while holding tp\.mu \(lockrank 20\) violates the lock hierarchy`
	s.mu.Unlock()
	tp.mu.Unlock()
}

// coupleDemuxThenPcb holds the demux bucket (30) while locking the pcb
// (20): the coupled lookup the fast path deliberately avoids.
func coupleDemuxThenPcb(s *stack, tp *pcb) {
	s.demuxMu.RLock()
	tp.mu.Lock() // want `acquiring tp\.mu \(lockrank 20\) while holding s\.demuxMu \(lockrank 30\) violates the lock hierarchy`
	tp.mu.Unlock()
	s.demuxMu.RUnlock()
}

// nestSameRank locks two pcbs (20, 20): same rank is also out of order.
func nestSameRank(a, b *pcb) {
	a.mu.Lock()
	b.mu.Lock() // want `acquiring b\.mu \(lockrank 20\) while holding a\.mu \(lockrank 20\) violates the lock hierarchy`
	b.mu.Unlock()
	a.mu.Unlock()
}

// recycleWaived is the TIME_WAIT recycle shape: a deliberate same-rank
// nesting, deadlock-free by reachability, waived at the site.  Silent.
func recycleWaived(s *stack, cur, old *pcb) {
	s.mu.Lock()
	cur.mu.Lock()
	old.mu.Lock() //oskit:allow lockhook -- same-rank pcb nesting; victim only reachable under the stack lock, which is held
	old.mu.Unlock()
	cur.mu.Unlock()
	s.mu.Unlock()
}

// unrankedStaysOutside: a plain sync.Mutex held while a ranked lock is
// taken (and vice versa) is not an ordering edge.  Silent.
func unrankedStaysOutside(s *stack) {
	var plain sync.Mutex
	plain.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	plain.Unlock()
}

// entryLock is the product's shape: a ranked wrapper embedding
// core.ComponentLock, taken with the promoted Enter.
//
//oskit:lockrank 5
type entryLock struct{ core.ComponentLock }

type component struct {
	mu entryLock
}

// enterInOrder enters the component (5) before the stack (10).  Silent.
func enterInOrder(c *component, s *stack) {
	c.mu.Enter()
	s.mu.Lock()
	s.mu.Unlock()
	c.mu.Leave()
}

// enterUnderStack enters the component (5) while holding the stack
// lock (10): an inversion through Enter.
func enterUnderStack(c *component, s *stack) {
	s.mu.Lock()
	c.mu.Enter() // want `acquiring c\.mu \(lockrank 5\) while holding s\.mu \(lockrank 10\) violates the lock hierarchy`
	c.mu.Leave()
	s.mu.Unlock()
}
