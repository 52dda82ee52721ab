// Command bench is the kit's one yardstick: four socket-level workloads
// measured end to end, and a per-layer table measured from outside.
// README.md has the method; BENCHMARK.json at the repository root names
// the command, the workloads and every metric.
//
//	go run -C bench -buildvcs=false . [-workload <name>] [-seed n] [-seconds n] [-trace 0|1]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Process model.  The parent re-executes itself once per workload as a
// child with GOMAXPROCS=1 — the kit fatals above that today — and a
// small fixed GOGC, so that the child's peak resident set is the rig's
// footprint and not wherever the collector's cycle happened to stand.
//
// A child that dies or outlives the watchdog is that workload failed:
// every operation counts as failed, there are no timings, the exit status
// is non-zero, and the other workloads still run.  One exception, because
// the kit at GOMAXPROCS=1 still dies about once in a quarter of an hour
// of http_file (README.md has the race and the rate) and a yardstick that
// fails four sessions in ten on its parent's flake measures nothing: the
// first death is answered with one more child, whose measurement is
// reported with the dead child's operations — as many as the second
// child attempted — counted in attempted and failed.
const (
	childProcs = 1
	childGOGC  = 10
	children   = 2 // at most: the first, and one more if it died
	// Hidden workloads, for the tests: every child kills itself; the first
	// child kills itself and the second measures crashOnceRuns.
	crashName     = "selftest-crash"
	crashOnceName = "selftest-crash-once"
	crashOnceRuns = "rtcp_pingpong"
	// deadline bounds a workload's children together; the driver allows
	// a run 180 s.
	deadline = 170 * time.Second
)

// watchdog is how long one child may take: a timed phase stretched to
// its limit, with set-up and probes.
func watchdog(seconds int) time.Duration {
	return phaseStretch*time.Duration(seconds)*time.Second + 30*time.Second
}

// Exit codes.
const (
	exitOK     = 0
	exitFailed = 1 // an operation failed or mis-verified, the run was no measurement, or the child died
	exitUsage  = 64
)

// hostInfo is attached to every result document: a number counts only
// with its host.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	ChildProcs int    `json:"child_gomaxprocs"`
	ChildGOGC  int    `json:"child_gogc"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown", ChildProcs: childProcs, ChildGOGC: childGOGC}
	// The benchmark is built with -buildvcs=false (a checkout need not be
	// a repository), so the commit is asked of git, where there is one.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = string(bytes.TrimSpace(out))
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// document is the full record of one workload's run, written to
// out/result-<workload>[-trace].json.
type document struct {
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Units    int      `json:"units"`
	Died     int      `json:"children_died"`
	Noisy    bool     `json:"noisy"`
	Checksum string   `json:"checksum"`
	// Correct says that the measured child ran to its end and every byte
	// it received verified; Attempted and Failed also count the operations
	// of a child that died.
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Error     string                 `json:"error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Diag      map[string]float64     `json:"diag,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 12, "workload seed: derives every payload and file body")
	seconds := flag.Int("seconds", 20, "length of each workload's timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	child := flag.Int("child", 0, "internal: measure -workload in this process, as the n-th child")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(exitUsage)
	}

	if *child > 0 {
		os.Exit(childMain(*workload, *child, *seed, *seconds, *trace == 1))
	}

	var names []string
	switch {
	case *workload == "":
		for _, w := range workloads {
			names = append(names, w.name)
		}
	case findWorkload(*workload) != nil || *workload == crashName || *workload == crashOnceName:
		names = []string{*workload}
	default:
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workload)
		os.Exit(exitUsage)
	}

	code := exitOK
	for _, name := range names {
		doc := runWorkload(name, *seed, *seconds, *trace == 1)
		if err := writeDocument(doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		printTable(doc)
		line := resultLine{Correct: doc.Correct, Attempted: doc.Attempted, Failed: doc.Failed, Metrics: doc.Metrics}
		out, _ := json.Marshal(line) // plain numbers and strings: cannot fail
		fmt.Println(string(out))
		if !line.Correct {
			code = exitFailed
		}
	}
	os.Exit(code)
}

// childMain runs one workload in this process and prints its result as
// the last line of standard output.
func childMain(name string, nth int, seed int64, seconds int, trace bool) int {
	if name == crashName || (name == crashOnceName && nth == 1) {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // not reached
	}
	wl := findWorkload(name)
	if name == crashOnceName {
		wl = findWorkload(crashOnceRuns)
	}
	if wl == nil {
		return exitUsage
	}
	res := runChild(wl, seed, seconds, trace)
	res.Workload = name
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if res.Error != "" || res.Failed > 0 {
		return exitFailed
	}
	return exitOK
}

// runWorkload runs the child for one workload and turns what comes
// back — a result, or a crash or a timeout — into the run's document.
func runWorkload(name string, seed int64, seconds int, trace bool) *document {
	doc := &document{Host: host(), Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]metricValue{}}
	if wl := findWorkload(name); wl != nil {
		doc.Why = wl.why
	}
	start := time.Now()
	left := func() time.Duration { return deadline - time.Since(start) }
	res, err := spawn(name, 1, seed, seconds, trace, watchdog(seconds))
	for err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		if doc.Died++; doc.Died == children || left() < watchdog(seconds)/2 {
			// Every operation the workload should have attempted counts as
			// failed, and there are no timings.
			doc.Error = err.Error()
			doc.Attempted, doc.Failed, doc.FailRatio = 1, 1, 1
			return doc
		}
		res, err = spawn(name, doc.Died+1, seed, seconds, trace, min(watchdog(seconds), left()))
	}
	doc.Units, doc.Noisy, doc.Checksum, doc.Diag, doc.Error = res.Units, res.Noisy, res.Checksum, res.Diag, res.Error
	doc.Attempted, doc.Failed = res.Attempted, res.Failed
	if doc.Attempted == 0 {
		doc.Attempted, doc.Failed = 1, 1 // the run died before its first operation
	}
	doc.Correct = doc.Failed == 0 && doc.Error == ""
	// A dead child's operations were never attempted: it stands in the
	// books with as many as the child that replaced it, all failed.
	doc.Attempted += doc.Died * res.Attempted
	doc.Failed += doc.Died * res.Attempted
	doc.FailRatio = float64(doc.Failed) / float64(doc.Attempted)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			doc.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	return doc
}

// spawn runs one child under the watchdog and returns the result it
// printed.
func spawn(name string, nth int, seed int64, seconds int, trace bool, limit time.Duration) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.CommandContext(ctx, exe, "-child", fmt.Sprint(nth), "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs), fmt.Sprintf("GOGC=%d", childGOGC))
	var crash headBuffer
	cmd.Stderr = &crash
	out, runErr := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("child exceeded the %v watchdog", limit.Round(time.Second))
	}
	// A child that exits non-zero after printing its result reported its
	// own failures; one that printed nothing died.
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	res := &childResult{}
	if len(last) == 0 || json.Unmarshal(last, res) != nil || res.Workload != name {
		if runErr == nil {
			runErr = errors.New("no result")
		}
		return nil, fmt.Errorf("child died: %w: %s", runErr, crash.firstLine())
	}
	_, _ = os.Stderr.Write(crash.b)
	return res, nil
}

// headBuffer keeps the head of the child's standard error — a Go fatal
// error names itself on the first line and then dumps every goroutine.
type headBuffer struct{ b []byte }

func (t *headBuffer) Write(p []byte) (int, error) {
	if room := 8192 - len(t.b); room > 0 {
		t.b = append(t.b, p[:min(room, len(p))]...)
	}
	return len(p), nil
}

func (t *headBuffer) firstLine() string {
	line, _, _ := bytes.Cut(bytes.TrimSpace(t.b), []byte("\n"))
	return string(line)
}

func writeDocument(doc *document) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	name := "result-" + doc.Workload
	if doc.Trace {
		name += "-trace"
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", name+".json"), append(b, '\n'), 0o644)
}

// printTable prints every metric of the run by name with its unit.
func printTable(doc *document) {
	defs := endToEnd
	if doc.Trace {
		defs = perLayer
	}
	h := doc.Host
	fmt.Printf("== %s  seed=%d seconds=%d trace=%v  units=%d checksum=%s noisy=%v children_died=%d\n",
		doc.Workload, doc.Seed, doc.Seconds, doc.Trace, doc.Units, doc.Checksum, doc.Noisy, doc.Died)
	fmt.Printf("   host: nproc=%d %s commit=%s child GOMAXPROCS=%d GOGC=%d\n", h.NProc, h.GoVersion, h.Commit, h.ChildProcs, h.ChildGOGC)
	if doc.Error != "" {
		fmt.Printf("   error: %s\n", doc.Error)
	}
	if !doc.Trace {
		fmt.Printf("   %-40s %14.4f\n", "fail_ratio", doc.FailRatio)
	}
	for _, d := range defs {
		if v, ok := doc.Metrics[d.Name]; ok {
			fmt.Printf("   %-40s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if !doc.Trace {
		for _, k := range []string{"host.canary_ns_fast", "host.canary_quiet_share", "spread.unit_median", "spread.unit_iqr_share", "proc.cpu_util"} {
			if v, ok := doc.Diag[k]; ok {
				fmt.Printf("   %-40s %14.4f (diagnostic)\n", k, v)
			}
		}
	}
}
