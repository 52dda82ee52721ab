package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// The child: one workload, measured in this process at GOMAXPROCS=1.

// childResult is what the child hands its parent, as one JSON line.
type childResult struct {
	Workload  string             `json:"workload"`
	Units     int                `json:"units"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checksum  string             `json:"checksum"`
	Noisy     bool               `json:"noisy"`
	Metrics   map[string]float64 `json:"metrics"`
	// Diag is reported on every run and never gated: the canary, the
	// unit spread, the processor share.
	Diag  map[string]float64 `json:"diag"`
	Error string             `json:"error,omitempty"`
}

const (
	// Set-up is repeated at least setupRounds times after the timed
	// phase, and on while the rounds are cheap, up to setupMaxRounds or
	// setupBudget.
	setupRounds    = 5
	setupMaxRounds = 30
	setupBudget    = time.Second
	maxUnits       = 1 << 13
	// phaseStretch is how many times its length a timed phase may last
	// on a host too slow to run sumUnits units in it.
	phaseStretch = 2
	// maxPooled bounds the per-operation latencies a traced run keeps
	// for tail.lat_p99_us; it is allocated before timing starts so the
	// harness's memory does not grow with the speed of the kit.
	maxPooled = 1 << 18
)

// lane is one stream of units in the timed phase.  An untraced run has
// one lane; a traced run alternates a traced and an untraced lane over
// the same instance (their difference is the tracing overhead) and, on
// the pair workloads, a third over the all-FreeBSD reference pair, so
// every lane sees the same host phases.
type lane struct {
	inst   instance
	traced bool
	ref    bool

	// One value per unit, as measured.
	goodput, opsPerS, latP50 []float64
	ops, failed              int
	bytes                    int64
	wall                     time.Duration
	cpu                      time.Duration
	mallocs, mallocBytes     uint64
	gcCPU                    float64
}

func newLane(inst instance, traced, ref bool) *lane {
	return &lane{inst: inst, traced: traced, ref: ref,
		goodput: make([]float64, 0, maxUnits), opsPerS: make([]float64, 0, maxUnits), latP50: make([]float64, 0, maxUnits)}
}

// procSample is the process's own ledger at one instant.
type procSample struct {
	cpu         time.Duration
	mallocs     uint64
	mallocBytes uint64
	gcCPU       float64
}

var procMetricNames = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	metrics.Read(procMetricNames)
	return procSample{
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:     procMetricNames[0].Value.Uint64(),
		mallocBytes: procMetricNames[1].Value.Uint64(),
		gcCPU:       procMetricNames[2].Value.Float64(),
	}
}

// runOps runs one untimed unit of ops operations and fails on any
// operation that did.
func runOps(inst instance, u *unitStat, ops int) error {
	*u = unitStat{lat: u.lat[:0]}
	inst.unit(u, ops)
	if u.dead != nil {
		return u.dead
	}
	if u.failed > 0 {
		return fmt.Errorf("%d of %d operations failed before the timed phase", u.failed, ops)
	}
	return nil
}

// setUp boots the workload and sees its first operation through — what
// setup_s times — and returns the instance with the time it took.
func setUp(wl *workloadDef, seed int64, ref bool, u *unitStat) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := wl.setup(seed, ref)
	if err != nil {
		return nil, 0, err
	}
	if err := runOps(inst, u, firstOps); err != nil {
		inst.halt()
		return nil, 0, err
	}
	return inst, time.Since(t0), nil
}

// warm runs the warm-up units that precede the timed phase.
func warm(wl *workloadDef, inst instance, u *unitStat) error {
	for i := 0; i < warmUnits; i++ {
		if err := runOps(inst, u, wl.unitOps); err != nil {
			return err
		}
	}
	return nil
}

// timedPhase round-robins the lanes, one unit at a time with a canary
// before each, for d — and on, up to phaseStretch times d, while the
// first lane's instance has run fewer than the sumUnits units that make a
// run a measurement.  It returns the canaries and the run checksum over
// those first sumUnits units.
func timedPhase(wl *workloadDef, lanes []*lane, d time.Duration, pooled *[]float64) (host *canaryLog, sum uint32, err error) {
	host = &canaryLog{ns: make([]float64, 0, maxUnits+1)}
	u := &unitStat{lat: make([]float64, 0, 1024)}
	done := 0 // units run over the first lane's instance
	start := time.Now()
	for i := 0; i < maxUnits; i++ {
		if el := time.Since(start); el >= phaseStretch*d || (el >= d && done >= sumUnits) {
			break
		}
		ln := lanes[i%len(lanes)]
		host.tick()
		*u = unitStat{lat: u.lat[:0]}
		before := sampleProc()
		tr.enable(ln.traced)
		ln.inst.unit(u, wl.unitOps)
		tr.enable(false)
		after := sampleProc()

		ln.ops += u.ops
		ln.failed += u.failed
		ln.bytes += u.bytes
		ln.wall += u.dur
		ln.cpu += after.cpu - before.cpu
		ln.mallocs += after.mallocs - before.mallocs
		ln.mallocBytes += after.mallocBytes - before.mallocBytes
		ln.gcCPU += after.gcCPU - before.gcCPU
		if ln.inst == lanes[0].inst {
			if done < sumUnits {
				sum ^= u.sum
			}
			done++
		}
		if u.ops > 0 && u.dur > 0 {
			secs := u.dur.Seconds()
			ln.goodput = append(ln.goodput, float64(u.bytes)*8/secs/1e6)
			ln.opsPerS = append(ln.opsPerS, float64(u.ops)/secs)
			if pooled != nil && !ln.ref {
				*pooled = append(*pooled, u.lat[:min(len(u.lat), cap(*pooled)-len(*pooled))]...)
			}
			if u.latMid == 0 {
				u.latMid = medianInPlace(u.lat)
			}
			ln.latP50 = append(ln.latP50, u.latMid)
		}
		if u.dead != nil {
			err = u.dead
			break
		}
	}
	host.tick()
	return host, sum, err
}

// unitValues returns the lane's unit values of the named end-to-end
// metric, and whether higher is better for it.
func (ln *lane) unitValues(name string) ([]float64, bool) {
	switch name {
	case "goodput_mbps":
		return ln.goodput, true
	case "ops_per_s":
		return ln.opsPerS, true
	}
	return ln.latP50, false
}

// value is the lane's reported value of the named end-to-end metric:
// the fast decile of its units.
func (ln *lane) value(name string) float64 {
	return fastDecile(ln.unitValues(name))
}

// endToEndOf turns a lane's unit values into the reported metrics.
func endToEndOf(ln *lane) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{"goodput_mbps", "ops_per_s", "lat_p50_us"} {
		m[name] = ln.value(name)
	}
	return m
}

// diagnose fills the never-gated diagnostics every run reports: the
// canary, the spread of the units of the workload's own metric — their
// median as a share of the reported fast decile (what the host's slow
// phases cost this run; 1 is none) and their interquartile range as a
// share of their median — and the processor share.
func diagnose(res *childResult, wl *workloadDef, ln *lane, host *canaryLog) {
	quiet := host.quietShare()
	res.Noisy = quiet < noisyBelow
	vals, hb := ln.unitValues(wl.primary)
	mid := ratio(median(vals), ln.value(wl.primary))
	if !hb {
		mid = ratio(ln.value(wl.primary), median(vals))
	}
	res.Diag = map[string]float64{
		"host.canary_ns_fast":     host.fastest(),
		"host.canary_quiet_share": quiet,
		"spread.unit_median":      mid,
		"spread.unit_iqr_share":   iqrShare(vals),
		"proc.cpu_util":           ratio(ln.cpu.Seconds(), ln.wall.Seconds()),
	}
}

// runChild measures one workload and returns its result; err is also
// recorded in the result so the parent can report it.
func runChild(wl *workloadDef, seed int64, seconds int, trace bool) *childResult {
	res := &childResult{Workload: wl.name, Metrics: map[string]float64{}}
	var err error
	if trace {
		err = runTraced(res, wl, seed, time.Duration(seconds)*time.Second)
	} else {
		err = runUntraced(res, wl, seed, time.Duration(seconds)*time.Second)
	}
	if err == nil && res.Units < sumUnits {
		err = fmt.Errorf("%d units, fewer than %d: not a measurement", res.Units, sumUnits)
	}
	if err != nil {
		res.Error = err.Error()
	}
	return res
}

// finishRun closes the run's books: whole-stream verification, the
// failure count, the checksum, the halt.
func finishRun(res *childResult, lanes []*lane, sum uint32, runErr error) error {
	for i, ln := range lanes {
		if i > 0 && ln.inst == lanes[0].inst {
			continue // two lanes over one instance
		}
		streamSum, bad, err := ln.inst.finish()
		if !ln.ref {
			sum ^= streamSum
			res.Failed += bad
		}
		if err != nil && runErr == nil {
			runErr = err
		}
		ln.inst.halt()
	}
	for _, ln := range lanes {
		if ln.ref {
			continue
		}
		res.Units += len(ln.opsPerS)
		res.Attempted += ln.ops + ln.failed
		res.Failed += ln.failed
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Checksum = fmt.Sprintf("%08x", sum)
	return runErr
}

// selfMaxRSS is the process's peak resident set so far, in MiB.
func selfMaxRSS() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func runUntraced(res *childResult, wl *workloadDef, seed int64, d time.Duration) error {
	u := &unitStat{lat: make([]float64, 0, 1024)}
	inst, _, err := setUp(wl, seed, false, u)
	if err != nil {
		return err
	}
	if err := warm(wl, inst, u); err != nil {
		inst.halt()
		return err
	}
	runtime.GC() // start every timed phase from the same heap

	ln := newLane(inst, false, false)
	lanes := []*lane{ln}
	host, sum, err := timedPhase(wl, lanes, d, nil)
	// The peak is read here, before the set-up rounds below boot more
	// rigs: it is the footprint of one rig running the workload.
	rss := selfMaxRSS()
	err = finishRun(res, lanes, sum, err)
	res.Metrics = endToEndOf(ln)
	res.Metrics["rss_peak_mb"] = rss
	diagnose(res, wl, ln, host)
	if err != nil {
		return err
	}
	res.Metrics["setup_s"], err = setUpRounds(wl, seed, u)
	return err
}

// setUpRounds performs set-up again and again with a halt between and
// returns the fast decile of the rounds, so work moved into set-up shows.
func setUpRounds(wl *workloadDef, seed int64, u *unitStat) (float64, error) {
	var rounds []float64
	for t0 := time.Now(); len(rounds) < setupRounds || (len(rounds) < setupMaxRounds && time.Since(t0) < setupBudget); {
		inst, took, err := setUp(wl, seed, false, u)
		if err != nil {
			return 0, err
		}
		_, _, err = inst.finish()
		inst.halt()
		if err != nil {
			return 0, err
		}
		rounds = append(rounds, took.Seconds())
	}
	return fastDecile(rounds, false), nil
}

func runTraced(res *childResult, wl *workloadDef, seed int64, d time.Duration) error {
	tr = newTracer()
	u := &unitStat{lat: make([]float64, 0, 1024)}
	tr.enable(true) // set-up is traced: boot, mount, populate
	inst, _, err := setUp(wl, seed, false, u)
	tr.enable(false)
	if err != nil {
		return err
	}
	if err := warm(wl, inst, u); err != nil {
		inst.halt()
		return err
	}
	traced, plain := newLane(inst, true, false), newLane(inst, false, false)
	lanes := []*lane{traced, plain}
	if wl.hasRef {
		ref, _, err := setUp(wl, seed, true, u)
		if err == nil {
			if err = warm(wl, ref, u); err != nil {
				ref.halt()
			}
		}
		if err != nil {
			inst.halt()
			return err
		}
		lanes = append(lanes, newLane(ref, false, true))
	}
	pooled := make([]float64, 0, maxPooled)
	runtime.GC()

	// The timed phase takes six tenths of the run; the probes the rest.
	rig := inst.testbed()
	c0 := rig.counters()
	phase0 := time.Now()
	host, sum, runErr := timedPhase(wl, lanes, d*6/10, &pooled)
	elapsed := time.Since(phase0)
	c1 := rig.counters()

	tr.enable(true) // the halt span
	runErr = finishRun(res, lanes, sum, runErr)
	tr.enable(false)
	diagnose(res, wl, plain, host)
	for k, v := range res.Diag {
		res.Metrics[k] = v
	}
	probes, err := runProbes(d/40, seed) // half a second a probe at 20 s
	if err != nil && runErr == nil {
		runErr = err
	}
	layerMetrics(res, wl, lanes, c0, c1, elapsed, pooled, probes)
	if werr := tr.write("out", wl.name); werr != nil && runErr == nil {
		runErr = werr
	}
	return runErr
}
