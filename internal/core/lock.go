package core

import "sync"

// ComponentLock is the recipe of §4.7.4 for using the kit's encapsulated
// components — which are not inherently thread safe — from multithreaded
// or multiprocessor clients: take a component-wide lock just before
// entering the component and release it when the component returns *and*
// across any blocking calls the component makes back to the client.
//
// It is the one implementation of the recipe.  Its product users are
// the network stack's Stack.mu and the file system's fsLock, both
// ranked: every entry Enters and Leaves, and every sleep, device call
// and call out to another component runs through Unlocked.  The lock
// analyzers know it by this type and map Enter/Leave to Lock/Unlock.
//
// The kit's sleep glue cooperates: a component's Sleep service, wrapped
// with WrapSleep, drops the lock for the duration of the block so other
// process-level threads can enter the component, exactly as the donor
// kernels' sleep released the implicit big lock.
//
// Separate components use separate locks (one around the file system,
// one around the network stack), giving the medium-grained concurrency
// the paper describes; the ablation benchmark in the top-level bench
// suite measures precisely that choice.
type ComponentLock struct {
	mu sync.Mutex
}

// Enter takes the component lock.
func (l *ComponentLock) Enter() { l.mu.Lock() }

// Leave releases the component lock.
func (l *ComponentLock) Leave() { l.mu.Unlock() }

// Unlocked releases the component lock, runs fn — a blocking call back
// to the client or a call into another component — and takes the lock
// again.  fn does not escape, so a closure passed here costs no
// allocation.
func (l *ComponentLock) Unlocked(fn func()) {
	l.mu.Unlock()
	fn()
	l.mu.Lock()
}

// WrapSleep derives a Sleep service that releases the component lock
// while blocked.  Install it in the Env handed to the locked component:
//
//	env.Sleep = lock.WrapSleep(env.Sleep)
func (l *ComponentLock) WrapSleep(sleep func(*SleepRec)) func(*SleepRec) {
	return func(r *SleepRec) { l.Unlocked(func() { sleep(r) }) }
}
