// Fixtures for the held-lock walk lockhook shares with guarded
// (analysis.WalkLocks): the places an earlier private copy of the walk
// disagreed with guarded's, each pinned to the one behaviour both now
// have.  guardedtest/walk.go pins the same rules from the other side.
package lockhooktest

import (
	"sync"

	"oskit/internal/core"
)

// switchSibling: a lock taken in one case clause is not held in its
// siblings.  Silent.
func (n *nic) switchSibling(k int, f []byte) {
	switch k {
	case 0:
		n.mu.Lock()
		defer n.mu.Unlock()
	case 1:
		n.rxHook(f)
	}
}

// forPost: a for statement's post clause runs under the loop's set.
func (n *nic) forPost(f []byte) {
	n.mu.Lock()
	for i := 0; i < 2; n.rxHook(f) { // want `call to hook/interposer field n\.rxHook while mutex n\.mu is held`
		i++
	}
	n.mu.Unlock()
}

// deferAfterUnlock: defers run LIFO, so a hook deferred after the
// deferred unlock runs while the lock is still held.
func (n *nic) deferAfterUnlock(f []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.rxHook(f) // want `call to hook/interposer field n\.rxHook while mutex n\.mu is held`
}

// deferBeforeLock: deferred before the lock, the hook runs after the
// unlock.  Silent.
func (n *nic) deferBeforeLock(f []byte) {
	defer n.rxHook(f)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.frames++
}

// pick and feed reach the hook through fireLocked.
func (n *nic) pick() any       { n.fireLocked(nil); return nil }
func (n *nic) feed() chan bool { n.fireLocked(nil); return nil }

// typeSwitchAssign: the x := e.(type) of a type switch is evaluated
// under the current set.
func (n *nic) typeSwitchAssign() {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch x := n.pick().(type) { // want `call to pick, which may invoke a hook/interposer, while mutex n\.mu is held`
	case nil:
		_ = x
	}
}

// selectComm: a select clause's communication is evaluated under the
// current set.
func (n *nic) selectComm() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case v := <-n.feed(): // want `call to feed, which may invoke a hook/interposer, while mutex n\.mu is held`
		_ = v
	default:
	}
}

// plainLock is an unranked wrapper: a struct embedding a mutex is a
// mutex, ranked or not.
type plainLock struct{ sync.Mutex }

type port struct {
	mu   plainLock
	hook func()
}

func (p *port) fire() {
	p.mu.Lock()
	p.hook() // want `call to hook/interposer field p\.hook while mutex p\.mu is held`
	p.mu.Unlock()
}

// gate is guarded by core.ComponentLock, the §4.7.4 recipe: Enter and
// Leave are its Lock and Unlock.
type gate struct {
	mu   core.ComponentLock
	hook func()
}

// enteredFire: Enter holds the lock, and the deferred Leave keeps it
// held to the end of the function.
func (g *gate) enteredFire() {
	g.mu.Enter()
	defer g.mu.Leave()
	g.hook() // want `call to hook/interposer field g\.hook while mutex g\.mu is held`
}

// fireBeforeEnter: before Enter the lock is not held.  Silent.
func (g *gate) fireBeforeEnter() {
	g.hook()
	g.mu.Enter()
	defer g.mu.Leave()
}

// fireInsideUnlocked: Unlocked's function runs with the lock released.
// Silent.
func (g *gate) fireInsideUnlocked() {
	g.mu.Enter()
	defer g.mu.Leave()
	g.mu.Unlocked(func() { g.hook() })
}
