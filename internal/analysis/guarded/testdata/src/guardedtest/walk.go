package guardedtest

import "sync"

// Fixtures for the held-lock walk guarded shares with lockhook
// (analysis.WalkLocks): the places an earlier private copy of lockhook's
// walk disagreed with guarded's, and the two shapes neither scanned, each
// pinned to the one behaviour both now have.  lockhooktest/walk.go pins
// the same rules from the other side.

// SwitchSibling: a lock taken in one case clause is not held in its
// siblings.
func SwitchSibling(k int) {
	switch k {
	case 0:
		gring.mu.Lock()
		defer gring.mu.Unlock()
	case 1:
		gring.count++ // want `write to ring\.count needs gring\.mu held exclusively`
	}
}

// ForPost: a for statement's post clause is scanned.
func ForPost() {
	for i := 0; i < 2; gring.count++ { // want `write to ring\.count needs gring\.mu held exclusively`
		i++
	}
}

// DeferAfterUnlock: defers run LIFO, so a call deferred after the
// deferred unlock runs with the lock held.  Silent.
func DeferAfterUnlock() {
	gring.mu.Lock()
	defer gring.mu.Unlock()
	defer gring.bumpLocked()
}

// DeferBeforeLock: deferred before the lock, the call runs after the
// unlock.
func DeferBeforeLock() {
	defer gring.bumpLocked() // want `call to bumpLocked needs gring\.mu held exclusively`
	gring.mu.Lock()
	defer gring.mu.Unlock()
}

// TypeSwitchAssign: the x := e.(type) of a type switch is scanned.
func TypeSwitchAssign() {
	switch x := any(gring.count).(type) { // want `read of ring\.count needs gring\.mu held`
	case int:
		_ = x
	}
}

type pipe struct {
	mu sync.Mutex
	ch chan int //oskit:guardedby mu
}

var gpipe pipe

// SelectComm: a select clause's communication is scanned.
func SelectComm() {
	select {
	case v := <-gpipe.ch: // want `read of pipe\.ch needs gpipe\.mu held`
		_ = v
	default:
	}
}

// plainLock is an unranked wrapper: a struct embedding a mutex is a
// mutex, ranked or not.
type plainLock struct{ sync.Mutex }

type wrapped struct {
	mu plainLock
	n  int //oskit:guardedby mu
}

var gwrapped wrapped

func WrappedLocked() {
	gwrapped.mu.Lock()
	gwrapped.n++
	gwrapped.mu.Unlock()
}

func WrappedUnlocked() {
	gwrapped.n++ // want `write to wrapped\.n needs gwrapped\.mu held exclusively`
}

// An entry prologue that returns holding its lock is an acquiring
// method; its caller defers the epilogue that releases it.
type ringEntry struct{ r *ring }

func (r *ring) enter() ringEntry {
	r.mu.Lock()
	return ringEntry{r}
}

func (e ringEntry) leave() { e.r.mu.Unlock() }

// EnteredBump: the acquiring call holds the lock from there to the end
// of the function.  Silent.
func EnteredBump() {
	defer gring.enter().leave()
	gring.count++
}

// BumpBeforeEnter: before the acquiring call the lock is not held.
func BumpBeforeEnter() {
	gring.count++ // want `write to ring\.count needs gring\.mu held exclusively`
	defer gring.enter().leave()
}

// EnteredThroughAlias: the call's receiver is named through its
// aliases, like any lock path.  Silent.
func EnteredThroughAlias(w *wrappedRing) {
	r := w.r
	defer r.enter().leave()
	w.r.count++
}

type wrappedRing struct{ r *ring }
