// Command oskitcheck runs the kit's static-analysis suite — comref,
// lockhook, guarded, guidreg, detsource — over the tree, enforcing at
// build time the invariants the paper leaves to convention: COM
// references must be Released (§4.4.2), interposed hooks may not run
// under locks, every shared field is accessed under its declared owner
// (//oskit:guardedby, //oskit:atomic, //oskit:initonly), the GUID
// namespace must stay collision-free, and the fault substrate must stay
// deterministic.
//
// One driver loads the whole program at once, so the cross-package
// analyzers (guidreg) see every package; test files are skipped — the
// invariants govern production code, not test-harness idioms:
//
//	oskitcheck ./...                 # whole tree (the tier-1 gate)
//	oskitcheck -list                 # the registered analyzers
//	oskitcheck -waivers ./...        # every applied //oskit:allow + reason
//	oskitcheck -timing -budget 10s ./...  # per-analyzer wall clock, gated
//
// Exit status: 0 clean, 1 unsuppressed diagnostics, 2 on failure.
//
// Diagnostics are waived with a reviewed comment on or directly above
// the flagged line:
//
//	//oskit:allow comref -- registry holds the reference for process life
//
// The driver counts applied waivers and prints them in the summary, so
// suppressions stay visible instead of rotting silently.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oskit/internal/analysis"
	"oskit/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func progName() string {
	return filepath.Base(os.Args[0])
}

func run(args []string) int {
	fs := flag.NewFlagSet("oskitcheck", flag.ExitOnError)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	quiet := fs.Bool("q", false, "suppress the summary line")
	waiversOut := fs.Bool("waivers", false, "list every applied //oskit:allow waiver with its reviewed reason")
	timing := fs.Bool("timing", false, "print per-analyzer wall-clock timing")
	budget := fs.Duration("budget", 0, "fail if any single analyzer exceeds this wall-clock budget (0 = off)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-list] [-q] [-waivers] [-timing] [-budget d] [packages...]\n", progName())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(analysis.LoadConfig{Patterns: patterns})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progName(), err)
		return 2
	}
	res, err := analysis.Run(prog, suite.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progName(), err)
		return 2
	}
	over := overBudget(res, *budget)
	printDiagnostics(os.Stdout, prog.Fset, res.Diagnostics)
	if *waiversOut {
		printWaivers(os.Stdout, prog.Fset, res.Waivers)
	}
	if *timing {
		for _, tm := range res.Timings {
			fmt.Fprintf(os.Stderr, "  %-10s %8.1fms\n", tm.Analyzer, float64(tm.Elapsed.Microseconds())/1000)
		}
	}
	for _, tm := range over {
		fmt.Fprintf(os.Stderr, "%s: analyzer %s took %v, over the %v budget\n", progName(), tm.Analyzer, tm.Elapsed.Round(time.Millisecond), *budget)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%s: %d package(s), %d diagnostic(s), %d suppressed by %s\n",
			progName(), len(prog.Packages), len(res.Diagnostics), len(res.Suppressed), analysis.AllowPrefix)
		for _, d := range res.Suppressed {
			pos := prog.Fset.Position(d.Pos)
			fmt.Fprintf(os.Stderr, "  suppressed: %s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
	}
	if len(res.Diagnostics) > 0 || len(over) > 0 {
		return 1
	}
	return 0
}

// overBudget returns the timings exceeding the per-analyzer budget.
func overBudget(res *analysis.Result, budget time.Duration) []analysis.Timing {
	if budget <= 0 {
		return nil
	}
	var out []analysis.Timing
	for _, tm := range res.Timings {
		if tm.Elapsed > budget {
			out = append(out, tm)
		}
	}
	return out
}

// printWaivers lists every //oskit:allow directive in the analyzed tree
// with its reviewed reason and how many findings it suppressed, so the
// waiver inventory stays auditable.
func printWaivers(w io.Writer, fset *token.FileSet, waivers []*analysis.Waiver) {
	for _, wv := range waivers {
		pos := fset.Position(wv.Pos)
		reason := wv.Reason
		if reason == "" {
			reason = "(no reason!)"
		}
		fmt.Fprintf(w, "%s:%d: allow %s (suppressed %d) -- %s\n",
			pos.Filename, pos.Line, strings.Join(wv.Analyzers, ","), wv.Suppressed, reason)
	}
}

func printDiagnostics(w io.Writer, fset *token.FileSet, ds []analysis.Diagnostic) {
	for _, d := range ds {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
	}
}
