// Package percpu provides a Bonwick-style per-CPU magazine cache
// (Bonwick & Adams, "Magazines and Vmem", USENIX 2001) used to front the
// kit's global-lock allocators on multi-CPU machines (E16).
//
// Each CPU slot holds a loaded/previous magazine pair guarded by a
// per-slot lock; the central depot keeps lists of full and empty
// magazines and is the only shared lock, taken only when a slot trades a
// magazine with it — the common alloc/free touches one CPU-local lock
// and no shared state.  The cache never calls out while holding its
// locks: a Get miss and a Put overflow return to the caller, which goes
// to the backing allocator with no cache locks held.  That keeps the
// cache leaf-like in the lock hierarchy and keeps allocator fault hooks
// out from under any cache lock.
//
// Magazines fill from the free side only (a miss takes one object from
// the backing allocator; a free stashes one object) — there is no bulk
// prefill, so every backing-allocator operation corresponds 1:1 to a
// user operation and fault-hook decision streams and allocation ledgers
// are unchanged by the cache's presence.
package percpu

import "sync"

// cpuLock guards one CPU slot's magazine pair.  It ranks above every
// allocator entry lock that may be held when a front cache is consulted
// (mclMu 70, klMu 75) and below the depot, which a slot trades with
// while still holding its own lock.
//
//oskit:lockrank 76
type cpuLock struct{ sync.Mutex }

// depotLock guards the depot's full/empty magazine lists.
//
//oskit:lockrank 77
type depotLock struct{ sync.Mutex }

// DefaultRounds is the magazine capacity used when New is passed a
// non-positive rounds count.
const DefaultRounds = 16

// depotCapPerCPU bounds the depot's full-magazine list to this many
// magazines per CPU slot, capping the memory a cache can hoard; overflow
// Puts return false and the caller frees to the backing allocator.
const depotCapPerCPU = 4

// magazine is a LIFO array of cached objects.
type magazine[T any] struct {
	rounds []T
}

// cpuSlot is one CPU's magazine pair.  The pad keeps slots on separate
// cache lines so per-CPU locks do not false-share.
type cpuSlot[T any] struct {
	mu     cpuLock
	loaded *magazine[T] //oskit:guardedby mu
	prev   *magazine[T] //oskit:guardedby mu
	_      [24]byte
}

// Cache is a per-CPU magazine cache over objects of type T.
type Cache[T any] struct {
	cpuFn   func() int   //oskit:initonly
	rounds  int          //oskit:initonly
	slots   []cpuSlot[T] //oskit:initonly  the slice header; slot contents are per-slot locked
	fullCap int          //oskit:initonly

	dmu   depotLock
	full  []*magazine[T] //oskit:guardedby dmu
	empty []*magazine[T] //oskit:guardedby dmu
}

// New builds a cache with ncpu slots holding up to rounds objects per
// magazine.  cpuFn supplies the per-operation slot key (hw.CurCPU in
// production; tests inject explicit schedules); out-of-range values
// clamp to slot 0 — the key steers locality, never correctness.
func New[T any](ncpu, rounds int, cpuFn func() int) *Cache[T] {
	if ncpu < 1 {
		ncpu = 1
	}
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	c := &Cache[T]{
		cpuFn:   cpuFn,
		rounds:  rounds,
		slots:   make([]cpuSlot[T], ncpu),
		fullCap: ncpu * depotCapPerCPU,
	}
	for i := range c.slots {
		//oskit:allow guarded -- construction: the cache is unpublished until New returns, so no slot lock exists to take yet
		c.slots[i].loaded = &magazine[T]{rounds: make([]T, 0, rounds)}
		c.slots[i].prev = &magazine[T]{rounds: make([]T, 0, rounds)} //oskit:allow guarded -- same construction window as loaded above
	}
	return c
}

// slot clamps the cpu function's answer into range.
func (c *Cache[T]) slot() (*cpuSlot[T], int) {
	i := c.cpuFn()
	if i < 0 || i >= len(c.slots) {
		i = 0
	}
	return &c.slots[i], i
}

// pop removes and returns the top round of m, clearing the vacated
// element so the cache does not pin dead references.
func pop[T any](m *magazine[T]) T {
	n := len(m.rounds) - 1
	v := m.rounds[n]
	var zero T
	m.rounds[n] = zero
	m.rounds = m.rounds[:n]
	return v
}

// Get returns a cached object and the slot it came from.  ok=false is a
// miss: the caller allocates one object from the backing allocator, with
// no cache locks held.
func (c *Cache[T]) Get() (v T, cpu int, ok bool) {
	s, cpu := c.slot()
	s.mu.Lock()
	if len(s.loaded.rounds) > 0 {
		v = pop(s.loaded)
		s.mu.Unlock()
		return v, cpu, true
	}
	if len(s.prev.rounds) > 0 {
		s.loaded, s.prev = s.prev, s.loaded
		v = pop(s.loaded)
		s.mu.Unlock()
		return v, cpu, true
	}
	// Both magazines empty: trade the previous (empty) magazine to the
	// depot for a full one, if it has any.
	c.dmu.Lock()
	if n := len(c.full); n > 0 {
		fullMag := c.full[n-1]
		c.full = c.full[:n-1]
		c.empty = append(c.empty, s.prev)
		c.dmu.Unlock()
		s.prev = s.loaded
		s.loaded = fullMag
		v = pop(s.loaded)
		s.mu.Unlock()
		return v, cpu, true
	}
	c.dmu.Unlock()
	s.mu.Unlock()
	var zero T
	return zero, cpu, false
}

// Put stashes an object on the caller's CPU slot.  ok=false is an
// overflow (the depot is at capacity): the caller frees the object to
// the backing allocator, with no cache locks held.
func (c *Cache[T]) Put(v T) (cpu int, ok bool) {
	s, cpu := c.slot()
	s.mu.Lock()
	if len(s.loaded.rounds) < c.rounds {
		s.loaded.rounds = append(s.loaded.rounds, v)
		s.mu.Unlock()
		return cpu, true
	}
	if len(s.prev.rounds) == 0 {
		s.loaded, s.prev = s.prev, s.loaded
		s.loaded.rounds = append(s.loaded.rounds, v)
		s.mu.Unlock()
		return cpu, true
	}
	// Both magazines full: trade the previous (full) magazine to the
	// depot for an empty one, unless the depot is at capacity.
	c.dmu.Lock()
	if len(c.full) >= c.fullCap {
		c.dmu.Unlock()
		s.mu.Unlock()
		return cpu, false
	}
	c.full = append(c.full, s.prev)
	var e *magazine[T]
	if n := len(c.empty); n > 0 {
		e = c.empty[n-1]
		c.empty = c.empty[:n-1]
	}
	c.dmu.Unlock()
	if e == nil {
		e = &magazine[T]{rounds: make([]T, 0, c.rounds)}
	}
	s.prev = s.loaded
	s.loaded = e
	s.loaded.rounds = append(s.loaded.rounds, v)
	s.mu.Unlock()
	return cpu, true
}

// Drain empties every magazine and the depot, calling free on each
// cached object with no cache locks held.  Used on Halt so allocation
// ledgers balance: every object the cache holds goes back to its
// backing allocator.
func (c *Cache[T]) Drain(free func(T)) {
	var all []T
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		for len(s.loaded.rounds) > 0 {
			all = append(all, pop(s.loaded))
		}
		for len(s.prev.rounds) > 0 {
			all = append(all, pop(s.prev))
		}
		s.mu.Unlock()
	}
	c.dmu.Lock()
	fulls := c.full
	c.full = nil
	c.dmu.Unlock()
	for _, m := range fulls {
		for len(m.rounds) > 0 {
			all = append(all, pop(m))
		}
	}
	for _, v := range all {
		free(v)
	}
}

// Cached reports how many objects the cache currently holds across all
// magazines and the depot.
func (c *Cache[T]) Cached() int {
	n := 0
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		n += len(s.loaded.rounds) + len(s.prev.rounds)
		s.mu.Unlock()
	}
	c.dmu.Lock()
	for _, m := range c.full {
		n += len(m.rounds)
	}
	c.dmu.Unlock()
	return n
}

// NumCPUs reports the number of CPU slots.
func (c *Cache[T]) NumCPUs() int { return len(c.slots) }
