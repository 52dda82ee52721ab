// Package stats is the kit's statistics component: a cheap,
// allocation-free counter/gauge/histogram registry exported through the
// com.Stats interface, in the spirit of BSD's kstat framework.
//
// The design follows the constraints of the kit's execution model
// (§4.5): statistics are updated from interrupt level on packet and
// block-I/O hot paths, so every update is a single atomic operation on
// pre-resolved state — no locks, no allocation, no map lookups.
// Components resolve their counters once at initialization
// (set.Counter("mbuf.allocs")) and hold the returned pointers; the
// update methods are nil-safe so optionally instrumented libraries
// (the LMM, the AMM) cost one predictable branch when no set is
// attached.
//
// A Set implements com.Stats and is meant to be registered in the
// services registry under com.StatsIID (dynamic binding, §4.2.2); the
// evalrig and cmd/oskit-stats discover every exporter that way and
// print the merged table beside the paper's Tables 1–2 numbers.
package stats

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"oskit/internal/com"
)

// Counter is a monotonically increasing event count.  The zero value is
// usable; all methods are safe on a nil receiver (no-op / zero).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load reads the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous level (bytes live, buffer occupancy) that
// also tracks its high-water mark.  Safe on a nil receiver.
type Gauge struct {
	v  atomic.Int64
	hi atomic.Int64
}

// Set records an absolute level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.raise(v)
}

// Add adjusts the level by delta (negative to lower it).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.raise(g.v.Add(delta))
}

// raise lifts the high-water mark to at least v.
func (g *Gauge) raise(v int64) {
	for {
		hi := g.hi.Load()
		if v <= hi || g.hi.CompareAndSwap(hi, v) {
			return
		}
	}
}

// Load reads the current level.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High reads the high-water mark.
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hi.Load()
}

func (g *Gauge) reset() {
	g.v.Store(0)
	g.hi.Store(0)
}

// Histogram is a fixed-bucket distribution: Observe(v) increments the
// first bucket whose upper bound is >= v, or the overflow bucket.
// Bounds are set at creation; observation is one atomic add plus a
// short linear scan of the (small, fixed) bound slice.  Safe on a nil
// receiver.
type Histogram struct {
	bounds  []uint64 // ascending upper bounds
	buckets []atomic.Uint64
	over    atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.over.Add(1)
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the running sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.over.Store(0)
	h.count.Store(0)
	h.sum.Store(0)
}

// metric is the registration record for one named statistic.
type metric struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Set is one component's named collection of statistics, exported as a
// com.Stats object.  Registration (Counter/Gauge/Histogram) takes a
// lock and may allocate; it happens once, at component initialization.
// The returned handles are then updated lock-free.
type Set struct {
	com.RefCount
	name string

	mu      sync.Mutex
	metrics []metric       //oskit:guardedby mu
	byName  map[string]int //oskit:guardedby mu
}

// NewSet creates an empty set named for its exporting component.  The
// caller owns one reference.
func NewSet(name string) *Set {
	s := &Set{name: name, byName: map[string]int{}}
	s.Init()
	return s
}

// QueryInterface implements com.IUnknown.
func (s *Set) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.StatsIID:
		s.AddRef()
		return s, nil
	}
	return nil, com.ErrNoInterface
}

// StatsName implements com.Stats.
func (s *Set) StatsName() string { return s.name }

// Counter returns the counter registered under name, creating it on
// first use ("subsys.counter" naming).  Idempotent: the same name
// always yields the same counter, so several call sites may share one.
func (s *Set) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byName[name]; ok {
		if s.metrics[i].c == nil {
			panic(fmt.Sprintf("stats: %s.%s registered with a different type", s.name, name))
		}
		return s.metrics[i].c
	}
	c := &Counter{}
	s.byName[name] = len(s.metrics)
	s.metrics = append(s.metrics, metric{name: name, c: c})
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (s *Set) Gauge(name string) *Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byName[name]; ok {
		if s.metrics[i].g == nil {
			panic(fmt.Sprintf("stats: %s.%s registered with a different type", s.name, name))
		}
		return s.metrics[i].g
	}
	g := &Gauge{}
	s.byName[name] = len(s.metrics)
	s.metrics = append(s.metrics, metric{name: name, g: g})
	return g
}

// Histogram returns the histogram registered under name with the given
// ascending upper bounds, creating it on first use.  Bounds are fixed
// at creation; a second caller gets the existing histogram (its bounds
// win).
func (s *Set) Histogram(name string, bounds []uint64) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byName[name]; ok {
		if s.metrics[i].h == nil {
			panic(fmt.Sprintf("stats: %s.%s registered with a different type", s.name, name))
		}
		return s.metrics[i].h
	}
	h := &Histogram{bounds: append([]uint64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(h.bounds))
	s.byName[name] = len(s.metrics)
	s.metrics = append(s.metrics, metric{name: name, h: h})
	return h
}

// Snapshot implements com.Stats: every statistic, registration order,
// with gauges expanded to value + ".hiwat" and histograms to per-bucket
// ".le_<bound>" rows plus ".count" and ".sum".
func (s *Set) Snapshot() []com.Statistic {
	s.mu.Lock()
	ms := append([]metric(nil), s.metrics...)
	s.mu.Unlock()
	out := make([]com.Statistic, 0, len(ms))
	for _, m := range ms {
		switch {
		case m.c != nil:
			out = append(out, com.Statistic{Name: m.name, Value: int64(m.c.Load())})
		case m.g != nil:
			out = append(out,
				com.Statistic{Name: m.name, Value: m.g.Load()},
				com.Statistic{Name: m.name + ".hiwat", Value: m.g.High()})
		case m.h != nil:
			for i, b := range m.h.bounds {
				out = append(out, com.Statistic{
					Name:  fmt.Sprintf("%s.le_%d", m.name, b),
					Value: int64(m.h.buckets[i].Load()),
				})
			}
			out = append(out,
				com.Statistic{Name: m.name + ".over", Value: int64(m.h.over.Load())},
				com.Statistic{Name: m.name + ".count", Value: int64(m.h.Count())},
				com.Statistic{Name: m.name + ".sum", Value: int64(m.h.Sum())})
		}
	}
	return out
}

// Reset implements com.Stats.
func (s *Set) Reset() {
	s.mu.Lock()
	ms := append([]metric(nil), s.metrics...)
	s.mu.Unlock()
	for _, m := range ms {
		switch {
		case m.c != nil:
			m.c.reset()
		case m.g != nil:
			m.g.reset()
		case m.h != nil:
			m.h.reset()
		}
	}
}

// Get reads one statistic from a snapshot by name (tests, asserts).
func Get(snap []com.Statistic, name string) (int64, bool) {
	for _, st := range snap {
		if st.Name == name {
			return st.Value, true
		}
	}
	return 0, false
}

// Lookup is the discovery seam: anything with the registry's Lookup
// method (core.Registry, without importing it — the stats component
// must stay below the LMM in the dependency order).
type Lookup interface {
	Lookup(iid com.GUID) []com.IUnknown
}

// Discover finds every com.Stats exporter in a services registry.  The
// returned objects each carry one reference (COM rules); release them
// when done.
func Discover(reg Lookup) []com.Stats {
	if reg == nil {
		return nil
	}
	objs := reg.Lookup(com.StatsIID)
	out := make([]com.Stats, 0, len(objs))
	for _, o := range objs {
		if st, ok := o.(com.Stats); ok {
			out = append(out, st)
		} else {
			o.Release()
		}
	}
	return out
}

// WriteTable renders every exporter's snapshot as an aligned
// "component  statistic  value" table, components sorted by name, rows
// in registration order, omitting zero-valued rows when terse is set
// (the evalrig report mode — a ttcp run touches a fraction of the
// registered statistics).
func WriteTable(w io.Writer, sets []com.Stats, terse bool) {
	sorted := append([]com.Stats(nil), sets...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].StatsName() < sorted[j].StatsName()
	})
	wrote := false
	for _, set := range sorted {
		for _, st := range set.Snapshot() {
			if terse && st.Value == 0 {
				continue
			}
			fmt.Fprintf(w, "%-14s %-28s %12d\n", set.StatsName(), st.Name, st.Value)
			wrote = true
		}
	}
	if !wrote {
		fmt.Fprintln(w, "(no statistics recorded)")
	}
}
