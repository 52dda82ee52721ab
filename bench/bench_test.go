package main

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// No rig is ever booted inside the test process: the kit fatals above
// GOMAXPROCS=1 and `go test` runs at the host's.  The smoke tests build
// the benchmark and run it, so the child's GOMAXPROCS=1 applies.

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.10, 2}, {0.25, 3.5}, {0.50, 6}, {0.90, 10}, {1, 11}, {-1, 1}, {2, 11},
	} {
		if got := percentile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one value = %v, want it", got)
	}
}

func TestFastDecile(t *testing.T) {
	// Nine units in a slow phase of the host and eleven in a fast one:
	// the reported value sits in the fast phase for a rate and for a time.
	var rates, times []float64
	for i := 0; i < 9; i++ {
		rates = append(rates, 1000+float64(i))
		times = append(times, 950-float64(i))
	}
	for i := 0; i < 11; i++ {
		rates = append(rates, 1700+float64(i))
		times = append(times, 590-float64(i))
	}
	if got := fastDecile(rates, true); got < 1700 {
		t.Errorf("fast decile of rates = %v, want it in the fast phase", got)
	}
	if got := fastDecile(times, false); got > 590 {
		t.Errorf("fast decile of times = %v, want it in the fast phase", got)
	}
	if rates[0] != 1000 || times[0] != 950 {
		t.Error("fastDecile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrShare = %v, want 2/3", got)
	}
	buf := []float64{5, 1, 3}
	if got := medianInPlace(buf); got != 3 || !sort.Float64sAreSorted(buf) {
		t.Errorf("medianInPlace = %v (buf %v), want 3 and a sorted buffer", got, buf)
	}
}

func TestCanary(t *testing.T) {
	// Canaries around four units, the run's fastest at 100: only the first
	// unit has both of its neighbours within 1.15× of it.
	l := canaryLog{ns: []float64{100, 110, 180, 100, 300}}
	if f := l.fastest(); f != 100 {
		t.Errorf("fastest canary = %v, want 100", f)
	}
	if q := l.quietShare(); q != 0.25 {
		t.Errorf("quiet share = %v, want 0.25", q)
	}
	// A run that is slow throughout is quiet throughout: the canary knows
	// only the run's own fastest.
	if q := (&canaryLog{ns: []float64{300, 310, 305}}).quietShare(); q != 1 {
		t.Errorf("quiet share of an evenly slow run = %v, want 1", q)
	}
	if q := (&canaryLog{ns: []float64{100}}).quietShare(); q != 0 {
		t.Errorf("quiet share without a unit = %v, want 0", q)
	}
	var fresh canaryLog
	fresh.tick()
	if len(fresh.ns) != 1 || fresh.ns[0] <= 0 || fresh.fastest() != fresh.ns[0] {
		t.Errorf("one tick logged %v, want one positive time", fresh.ns)
	}
}

func TestSeededInputs(t *testing.T) {
	a, b, c := seededBytes(12, 3, 100), seededBytes(12, 3, 100), seededBytes(13, 3, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seed and stream gave different bytes")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, seededBytes(12, 4, 100)) {
		t.Error("a different seed or stream gave the same bytes")
	}
	// The run checksum must survive what http_file does: the same few
	// payloads round-robin over consecutive tickets (CRC alone is linear
	// and cancels to 0 there), in any order.
	sum := func(seed int64, order []int64) uint32 {
		var s uint32
		for _, tk := range order {
			s ^= opSum(tk, crc32.ChecksumIEEE(seededBytes(seed, uint64(tk%8), 64)))
		}
		return s
	}
	var fwd, rev []int64
	for i := int64(0); i < 64; i++ {
		fwd = append(fwd, i)
		rev = append([]int64{i}, rev...)
	}
	if sum(12, fwd) == 0 {
		t.Error("round-robin repeats cancelled the checksum to 0")
	}
	if sum(12, fwd) != sum(12, rev) {
		t.Error("checksum depends on completion order")
	}
	if sum(12, fwd) == sum(13, fwd) {
		t.Error("checksum does not depend on the seed")
	}
	if pingByte(12, 5) != pingByte(12, 5) {
		t.Error("pingByte is not a function of its arguments")
	}
}

func TestHTTPHead(t *testing.T) {
	if n, err := httpHead([]byte("HTTP/1.1 200 OK\r\nServer: x\r\ncontent-length: 65536\r\n\r\n")); err != nil || n != 65536 {
		t.Errorf("httpHead = %d, %v", n, err)
	}
	for _, bad := range []string{
		"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n",
		"garbage\r\n\r\n",
	} {
		if _, err := httpHead([]byte(bad)); err == nil {
			t.Errorf("httpHead accepted %q", bad)
		}
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the driver's alphabet", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !metricNameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or collides with a metric", w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if !seen[w.primary] || w.unitOps < 1 {
			t.Errorf("workload %s: primary metric %q or unit size %d is not declared", w.name, w.primary, w.unitOps)
		}
	}
	for _, bad := range []string{"", "-x", "a b", "a/b", strings.Repeat("x", 65)} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("metricNameRE accepts %q", bad)
		}
	}
}

// benchmarkFile is BENCHMARK.json, decoded strictly.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON: the file the driver reads lists exactly the
// workloads and metrics the harness emits.
func TestBenchmarkJSON(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "-C", "bench", "-buildvcs=false", "."}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q (%q), the harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the harness emits %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, the harness emits %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] %s: bound must be in (0, 0.25]", i, m.Name)
		}
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", lower}) {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness's table:\n%v\n%v", b.PerLayer, perLayer)
	}
}

// buildBench builds the benchmark once per test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// runBench runs the built benchmark in a scratch directory and returns
// its exit code and the decoded last line of its standard output.
func runBench(t *testing.T, exe string, args ...string) (int, map[string]json.RawMessage) {
	t.Helper()
	cmd := exec.Command(exe, args...)
	cmd.Dir = t.TempDir()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of output is not a JSON object: %v\n%s", err, out)
	}
	return code, last
}

// checkResultShape holds a result line to the driver's shape with every
// metric of defs in it, and returns the metrics.  The smoke runs are too
// short to be measurements, so the line must say so: nothing failed, and
// yet the run is not correct.
func checkResultShape(t *testing.T, last map[string]json.RawMessage, defs []metricDef) map[string]metricValue {
	t.Helper()
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys = %v, want %v", keys, want)
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]metricValue
	for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(last[k], dst); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	if correct || attempted < 1 || failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run that is no measurement", correct, attempted, failed)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok {
			t.Errorf("metric %s is missing", d.Name)
			continue
		}
		// Only a difference of two measurements may read below 0.
		if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && d.Name != "trace.overhead_share") {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
		}
	}
	return metrics
}

// TestSmoke spawns the benchmark with a 1 s phase and checks that the
// result line has the driver's shape with every declared metric in it,
// for the end-to-end run and the traced one; that a run of fewer than
// sumUnits units fails as no measurement; and that the crash path reports
// a dead child as a failed workload instead of hanging.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	exe := buildBench(t)
	t.Run("end_to_end", func(t *testing.T) {
		code, last := runBench(t, exe, "--workload", "rtcp_pingpong", "--seed", "7", "--seconds", "1", "--trace", "0")
		if code != exitFailed {
			t.Errorf("exit status %d, want %d: a 1 s phase cannot reach %d units", code, exitFailed, sumUnits)
		}
		for name, m := range checkResultShape(t, last, endToEnd) {
			if m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
			}
		}
	})
	t.Run("traced", func(t *testing.T) {
		code, last := runBench(t, exe, "--workload", "rtcp_pingpong", "--seed", "7", "--seconds", "1", "--trace", "1")
		if code != exitFailed {
			t.Errorf("exit status %d, want %d", code, exitFailed)
		}
		checkResultShape(t, last, perLayer)
	})
	t.Run("crash_once", func(t *testing.T) {
		// The first child dies and the second measures: the line carries
		// the second child's metrics, and the dead child's operations —
		// as many as the second attempted — in attempted and failed.
		_, last := runBench(t, exe, "--workload", crashOnceName, "--seed", "7", "--seconds", "1", "--trace", "0")
		var attempted, failed int
		var metrics map[string]metricValue
		_ = json.Unmarshal(last["attempted"], &attempted)
		_ = json.Unmarshal(last["failed"], &failed)
		_ = json.Unmarshal(last["metrics"], &metrics)
		if failed < 1 || attempted != 2*failed || len(metrics) != len(endToEnd) {
			t.Errorf("one dead child, one measuring: attempted=%d failed=%d with %d metrics, want attempted = 2 × failed and %d metrics",
				attempted, failed, len(metrics), len(endToEnd))
		}
	})
	t.Run("crash", func(t *testing.T) {
		code, last := runBench(t, exe, "--workload", crashName, "--seconds", "1")
		if code != exitFailed {
			t.Errorf("exit status %d, want %d", code, exitFailed)
		}
		var correct bool
		var attempted, failed int
		_ = json.Unmarshal(last["correct"], &correct)
		_ = json.Unmarshal(last["attempted"], &attempted)
		_ = json.Unmarshal(last["failed"], &failed)
		if correct || attempted != 1 || failed != 1 || string(last["metrics"]) != "{}" {
			t.Errorf("crashed child reported correct=%v attempted=%d failed=%d metrics=%s, want fail_ratio 1 and no timings",
				correct, attempted, failed, last["metrics"])
		}
	})
}
