package core

import (
	"container/heap"
	"sync"
)

// Clock is the kit's tick counter plus a callout table: functions
// scheduled to run at interrupt level after a number of ticks.  The
// kernel support library advances it from the timer interrupt; donor
// timeout/untimeout and TCP's timers sit on top.
type Clock struct {
	mu    sync.Mutex
	ticks uint64
	q     calloutHeap
	seq   uint64
}

// NewClock creates a clock at tick zero.
func NewClock() *Clock { return &Clock{} }

// Ticks returns the current tick count.
func (c *Clock) Ticks() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// Tick advances the clock one tick and runs expired callouts.  It is
// called from the timer interrupt handler, so callouts run at interrupt
// level: they must not block (§4.7.4).
func (c *Clock) Tick() {
	c.mu.Lock()
	c.ticks++
	now := c.ticks
	var due []*callout
	for len(c.q) > 0 && c.q[0].when <= now {
		co := heap.Pop(&c.q).(*callout)
		if !co.cancelled {
			due = append(due, co)
		}
	}
	c.mu.Unlock()
	for _, co := range due {
		co.fn()
	}
}

// After schedules fn to run delay ticks from now (delay 0 means on the
// next tick).  The returned cancel function is idempotent and reports
// nothing; cancelling an already-run callout is harmless.
func (c *Clock) After(delay uint64, fn func()) (cancel func()) {
	c.mu.Lock()
	c.seq++
	co := &callout{when: c.ticks + delay + 1, seq: c.seq, fn: fn}
	heap.Push(&c.q, co)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		co.cancelled = true
		c.mu.Unlock()
	}
}

type callout struct {
	when      uint64
	seq       uint64 // FIFO among equal deadlines
	fn        func()
	cancelled bool
}

type calloutHeap []*callout

func (h calloutHeap) Len() int { return len(h) }
func (h calloutHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h calloutHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calloutHeap) Push(x any) {
	*h = append(*h, x.(*callout))
}
func (h *calloutHeap) Pop() any {
	old := *h
	n := len(old)
	co := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return co
}
