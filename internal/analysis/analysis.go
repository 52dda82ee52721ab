// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library so the kit stays dependency-free (the same "no required support
// code" discipline §4.4.3 demands of components applies to the toolchain
// that checks them).
//
// An Analyzer is a named invariant checker over one type-checked package
// (Run) or over the whole program at once (RunProgram, for invariants such
// as GUID uniqueness that only exist across packages).  The runner applies
// a suite of analyzers to a loaded Program and post-filters diagnostics
// through //oskit:allow suppression comments, keeping every waiver visible
// and countable instead of silently swallowed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding: a position, a message, and the analyzer that
// produced it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Package is one type-checked package: syntax, types, and provenance.
type Package struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	Dir        string
	ImportPath string
}

// Program is the unit the runner operates on: every package selected for
// analysis, sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Pass carries one analyzer's view of one package plus the reporting
// channel.  It mirrors x/tools' analysis.Pass closely enough that the
// analyzers would port with little friction.
type Pass struct {
	Analyzer *Analyzer
	*Package
	report func(Diagnostic)
	allows allowSet
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Waived reports whether an //oskit:allow would suppress this pass's
// diagnostic at pos, for analyzers that report at a waived site instead
// of propagating an obligation past it.
func (p *Pass) Waived(pos token.Pos) bool {
	return p.allows.allows(p.Fset, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name}) != nil
}

// Analyzer is one invariant checker.  Exactly one of Run and RunProgram
// must be set: Run sees one package at a time; RunProgram sees the whole
// program (for cross-package invariants such as GUID uniqueness).
type Analyzer struct {
	Name string
	Doc  string

	Run        func(*Pass) error
	RunProgram func(*Program, func(Diagnostic)) error
}

// Validate reports whether the analyzer set is well-formed: names unique
// and non-empty, exactly one run hook each.  The structure test asserts
// this so a conflicting registration fails tier-1 immediately.
func Validate(analyzers []*Analyzer) error {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" {
			return fmt.Errorf("analyzer with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if (a.Run == nil) == (a.RunProgram == nil) {
			return fmt.Errorf("analyzer %q must set exactly one of Run and RunProgram", a.Name)
		}
	}
	return nil
}

// Result is the outcome of running a suite: diagnostics that stand,
// diagnostics waived by //oskit:allow comments (kept so drivers can report
// how many waivers are in force), the waiver directives themselves, and
// per-analyzer wall-clock timings (so CI can budget the lint step).
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  []Diagnostic
	Waivers     []*Waiver
	Timings     []Timing
}

// Waiver is one //oskit:allow directive found in the program: where it
// sits, which analyzers it names, the reviewed reason after `--`, and how
// many diagnostics it actually suppressed in this run.
type Waiver struct {
	Pos        token.Pos
	Analyzers  []string
	Reason     string
	Suppressed int
}

// Timing is one analyzer's wall-clock cost over the whole program.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// AllowPrefix is the comment directive that waives one diagnostic:
//
//	//oskit:allow <analyzer>[,<analyzer>...] [-- reason]
//
// placed on the flagged line or on the line directly above it.  The
// driver counts applied waivers so suppressions stay visible in output.
const AllowPrefix = "//oskit:allow"

// allowSet maps filename → line → analyzer name → the waiver directive
// covering that (line, analyzer), so a match can be attributed back to
// the //oskit:allow comment that granted it.
type allowSet map[string]map[int]map[string]*Waiver

func collectAllows(prog *Program) (allowSet, []*Waiver) {
	out := allowSet{}
	var waivers []*Waiver
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					w := &Waiver{Pos: c.Pos(), Analyzers: names, Reason: reason}
					waivers = append(waivers, w)
					pos := prog.Fset.Position(c.Pos())
					byLine := out[pos.Filename]
					if byLine == nil {
						byLine = map[int]map[string]*Waiver{}
						out[pos.Filename] = byLine
					}
					// The directive covers its own line (trailing
					// comment) and the next line (comment above).
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := byLine[line]
						if set == nil {
							set = map[string]*Waiver{}
							byLine[line] = set
						}
						for _, n := range names {
							set[n] = w
						}
					}
				}
			}
		}
	}
	return out, waivers
}

// parseAllow extracts the analyzer names and the reviewed reason (the
// text after `--`, empty if absent) from an //oskit:allow comment.
func parseAllow(text string) (names []string, reason string, ok bool) {
	if !strings.HasPrefix(text, AllowPrefix) {
		return nil, "", false
	}
	rest := strings.TrimPrefix(text, AllowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false // e.g. //oskit:allowance
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		reason = strings.TrimSpace(rest[i+len("--"):])
		rest = rest[:i]
	}
	for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		names = append(names, f)
	}
	return names, reason, len(names) > 0
}

// allRan reports whether every analyzer in names ran ("all" names none
// in particular, so it never has).
func allRan(ran map[string]bool, names []string) bool {
	for _, n := range names {
		if !ran[n] {
			return false
		}
	}
	return true
}

func (a allowSet) allows(fset *token.FileSet, d Diagnostic) *Waiver {
	pos := fset.Position(d.Pos)
	byLine := a[pos.Filename]
	if byLine == nil {
		return nil
	}
	set := byLine[pos.Line]
	if set == nil {
		return nil
	}
	if w := set[d.Analyzer]; w != nil {
		return w
	}
	return set["all"]
}

// Run applies the analyzers to every package of the program and splits
// the findings into standing and suppressed diagnostics, each sorted by
// position.
func Run(prog *Program, analyzers []*Analyzer) (*Result, error) {
	if err := Validate(analyzers); err != nil {
		return nil, err
	}
	var all []Diagnostic
	report := func(d Diagnostic) { all = append(all, d) }
	allows, waivers := collectAllows(prog)
	res := &Result{Waivers: waivers}
	for _, a := range analyzers {
		start := time.Now()
		if a.RunProgram != nil {
			name := a.Name
			if err := a.RunProgram(prog, func(d Diagnostic) {
				d.Analyzer = name
				report(d)
			}); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			res.Timings = append(res.Timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
			continue
		}
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Package: pkg, report: report, allows: allows}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		res.Timings = append(res.Timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
	}
	// A waiver is a reviewed exception: one without a reason after `--`
	// is unreviewed by definition and is itself a diagnostic (reported
	// under the pseudo-analyzer "allow", which //oskit:allow cannot
	// waive away since the directive only covers real analyzer names).
	for _, w := range waivers {
		if w.Reason == "" {
			all = append(all, Diagnostic{
				Pos:      w.Pos,
				Analyzer: "allow",
				Message:  fmt.Sprintf("%s waiver for %s has no reason: write %s %s -- <why>", AllowPrefix, strings.Join(w.Analyzers, ","), AllowPrefix, strings.Join(w.Analyzers, ",")),
			})
		}
	}
	for _, d := range all {
		if w := allows.allows(prog.Fset, d); w != nil && d.Analyzer != "allow" {
			w.Suppressed++
			res.Suppressed = append(res.Suppressed, d)
		} else {
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	// A waiver that suppressed nothing is stale, or was never needed: it
	// is a diagnostic too, once every analyzer it names has run.
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, w := range waivers {
		if w.Suppressed > 0 || !allRan(ran, w.Analyzers) {
			continue
		}
		res.Diagnostics = append(res.Diagnostics, Diagnostic{
			Pos:      w.Pos,
			Analyzer: "allow",
			Message:  fmt.Sprintf("%s waiver for %s suppressed nothing: delete it, or keep its reason as a plain comment", AllowPrefix, strings.Join(w.Analyzers, ",")),
		})
	}
	byPos := func(ds []Diagnostic) func(i, j int) bool {
		return func(i, j int) bool {
			pi, pj := prog.Fset.Position(ds[i].Pos), prog.Fset.Position(ds[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return ds[i].Message < ds[j].Message
		}
	}
	sort.Slice(res.Diagnostics, byPos(res.Diagnostics))
	sort.Slice(res.Suppressed, byPos(res.Suppressed))
	return res, nil
}
