package main

import (
	"regexp"
	"runtime"
	"slices"
	"sort"
	"time"
)

// The statistic.  A timed phase is cut into fixed-size units and each
// unit yields one value per metric.  The reported value is the fast
// decile across units — p90 of unit rates, p10 of unit times — because
// on this host everything outside the kit (a neighbour on the shared
// cache, a descheduled vCPU) only ever adds time: the slow units say
// what the host was doing, the fast ones what the kit costs.  README.md
// has the measurements behind the rule.  Nothing is ever rescaled: the
// canary between units only says how much of the run the host left
// undisturbed, and flags a run with too little of it.

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// fastDecile is p90 of values where higher is better and p10 where lower
// is: the reported value of every timing, over units, set-up rounds and
// probe batches alike.
func fastDecile(v []float64, higherBetter bool) float64 {
	if higherBetter {
		return percentile(sortedCopy(v), 0.90)
	}
	return percentile(sortedCopy(v), 0.10)
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.50) }

// iqrShare is the interquartile range as a share of the median.
func iqrShare(v []float64) float64 {
	s := sortedCopy(v)
	m := percentile(s, 0.50)
	if m == 0 {
		return 0
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / m
}

// medianInPlace sorts v and returns its median; for per-unit latency
// buffers that are reused, so nothing is allocated in the timed phase.
func medianInPlace(v []float64) float64 {
	sort.Float64s(v)
	return percentile(v, 0.50)
}

// metricNameRE is the shape every metric name must have (the driver's
// contract: letters, digits, '_', '.', '-', at most 64, starting with a
// letter or digit).
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The canary is a fixed loop that never touches the kit: the same call
// the kit's interrupt exclusion leans on today (runtime.Stack), so it is
// slowed by what slows the kit.  It only flags.
const (
	canaryCalls = 2000
	canaryQuiet = 1.15 // a canary within this factor of the run's fastest is "quiet"
	noisyBelow  = 0.10 // a run with a smaller quiet share is flagged noisy
)

// canary runs the loop once and returns nanoseconds per call.
func canary() float64 {
	var buf [64]byte
	t0 := time.Now()
	for i := 0; i < canaryCalls; i++ {
		runtime.Stack(buf[:32], false)
	}
	return float64(time.Since(t0).Nanoseconds()) / canaryCalls
}

// canaryLog collects the canaries of a phase: one before the first unit
// and one after every unit, so ns[i] ran before unit i and ns[i+1] after.
type canaryLog struct{ ns []float64 }

func (l *canaryLog) tick() { l.ns = append(l.ns, canary()) }

// fastest is the run's fastest canary, 0 before the first.
func (l *canaryLog) fastest() float64 {
	if len(l.ns) == 0 {
		return 0
	}
	return slices.Min(l.ns)
}

// quietShare is the share of units whose canaries on both sides ran
// within canaryQuiet of the run's fastest.
func (l *canaryLog) quietShare() float64 {
	if len(l.ns) < 2 {
		return 0
	}
	limit := l.fastest() * canaryQuiet
	quiet := 0
	for i := 0; i+1 < len(l.ns); i++ {
		if l.ns[i] <= limit && l.ns[i+1] <= limit {
			quiet++
		}
	}
	return float64(quiet) / float64(len(l.ns)-1)
}

// timed wraps a probe batch so it reports its own duration.
func timed(batch func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		batch()
		return time.Since(t0)
	}
}

// timeProbe runs batches of iters iterations for at least dur (and at
// least ten batches) and returns the fast decile of nanoseconds per
// iteration.
func timeProbe(dur time.Duration, iters int, batch func() time.Duration) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 10 || time.Since(start) < dur {
		per = append(per, float64(batch().Nanoseconds())/float64(iters))
	}
	return fastDecile(per, false)
}
