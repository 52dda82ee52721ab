package guardedtest

import (
	"sync"

	"oskit/internal/core"
)

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

// entered is a component guarded by core.ComponentLock, the §4.7.4
// recipe: Enter and Leave are its Lock and Unlock, and Unlocked runs a
// call with the lock released.
type entered struct {
	mu    core.ComponentLock
	count int //oskit:guardedby mu
}

var gentered entered

// EnteredBump: Enter holds the lock, and the deferred Leave keeps it
// held to the end of the function.  Silent.
func EnteredBump() {
	gentered.mu.Enter()
	defer gentered.mu.Leave()
	gentered.count++
}

// BumpBeforeEnter: before Enter the lock is not held.
func BumpBeforeEnter() {
	gentered.count++ // want `write to entered\.count needs gentered\.mu held exclusively`
	gentered.mu.Enter()
	defer gentered.mu.Leave()
}

// BumpAfterLeave: after Leave the lock is not held.
func BumpAfterLeave() {
	gentered.mu.Enter()
	gentered.mu.Leave()
	gentered.count++ // want `write to entered\.count needs gentered\.mu held exclusively`
}

// EnteredThroughAlias: the lock is named through its aliases, like any
// lock path.  Silent.
func EnteredThroughAlias(w *wrappedEntered) {
	e := w.e
	e.mu.Enter()
	defer e.mu.Leave()
	w.e.count++
}

type wrappedEntered struct{ e *entered }

// BumpInsideUnlocked: Unlocked's function runs with the lock released.
func BumpInsideUnlocked() {
	gentered.mu.Enter()
	defer gentered.mu.Leave()
	gentered.mu.Unlocked(func() {
		gentered.count++ // want `write to entered\.count needs gentered\.mu held exclusively`
	})
}

// rankedEntered is the product's shape: a ranked wrapper embedding the
// component lock, entered through the embedded methods.
//
//oskit:lockrank 10
type rankedEntered struct{ core.ComponentLock }

type rankedComponent struct {
	mu    rankedEntered
	count int //oskit:guardedby mu
}

var granked rankedComponent

// RankedEnteredBump: the promoted Enter holds the wrapper.  Silent.
func RankedEnteredBump() {
	granked.mu.Enter()
	defer granked.mu.Leave()
	granked.count++
}

// RankedUnentered: the wrapper is a mutex whether or not it is held.
func RankedUnentered() {
	granked.count++ // want `write to rankedComponent\.count needs granked\.mu held exclusively`
}
