// Structural artifact tests: Table 3 (the component inventory that
// cmd/oskit-sizes joins with line counts) and Figure 1 (the layered
// structure cmd/oskit-graph renders).
package oskit_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oskit/internal/analysis"
	"oskit/internal/analysis/suite"
	"oskit/internal/core"
	"oskit/internal/structure"
)

// TestTable3Inventory: every inventory row has a unique name and names
// a real directory with Go source in it, every glue file it lists
// exists, and the Table 3 rows the paper lists (minus the documented
// exclusions) are all present.
func TestTable3Inventory(t *testing.T) {
	names := map[string]bool{}
	for _, c := range core.Inventory {
		if names[c.Name] {
			t.Errorf("duplicate inventory component %q", c.Name)
		}
		names[c.Name] = true
		for _, f := range c.Glue {
			if _, err := os.Stat(filepath.Join(c.Dir, f)); err != nil {
				t.Errorf("component %s: glue file: %v", c.Name, err)
			}
		}
		entries, err := os.ReadDir(c.Dir)
		if err != nil {
			t.Errorf("component %s: %v", c.Name, err)
			continue
		}
		hasGo := false
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
			}
		}
		if !hasGo {
			t.Errorf("component %s: no implementation files in %s", c.Name, c.Dir)
		}
	}
	// The paper's Table 3 rows we reproduce (X11 and the FreeBSD math
	// library are excluded per DESIGN.md §6).
	want := []string{
		"boot", "kern", "smp", "lmm", "amm", "c", "memdebug",
		"diskpart", "fsread", "exec", "com", "fdev",
		"linux_dev", "freebsd_dev", "freebsd_net", "netbsd_fs",
	}
	for _, name := range want {
		if !names[name] {
			t.Errorf("Table 3 row %q missing from the inventory", name)
		}
	}
}

// forEachDonorFile calls fn with every donor file, parsed: an
// encapsulated component's non-test files outside its inventory glue
// list.
func forEachDonorFile(t *testing.T, fn func(file string, af *ast.File)) {
	t.Helper()
	for _, c := range core.Inventory {
		if c.Kind != core.KindEncapsulated {
			continue
		}
		files, err := filepath.Glob(filepath.Join(c.Dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") || slices.Contains(c.Glue, filepath.Base(f)) {
				continue
			}
			af, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			fn(f, af)
		}
	}
}

// forEachDonorImport calls fn with every import of every donor file.
func forEachDonorImport(t *testing.T, fn func(file, imp string)) {
	t.Helper()
	forEachDonorFile(t, func(file string, af *ast.File) {
		for _, imp := range af.Imports {
			fn(file, strings.Trim(imp.Path.Value, `"`))
		}
	})
}

// donorLeafLocks are the only locks donor code takes: allocator
// free-list leaves, each named by the path a Lock call's receiver ends
// in.  A component's own exclusion is taken in its glue.
var donorLeafLocks = map[string]string{
	"internal/freebsd/net/mbuf.go":    "freeMu",
	"internal/linux/legacy/skbuff.go": "skbs.mu",
	"internal/linux/legacy/ide.go":    "reqMu",
}

// TestDonorCodeNamesNoKitType: the encapsulation line of §4.7.  Donor
// code never sees the kit's interfaces — only an encapsulated
// component's glue files speak COM — so no donor file imports com, hw,
// core or libc.  Nor does donor code take its component's exclusion
// (§4.7.4): the glue takes it at each entry, so the only Lock or
// Unlock call in a donor file is on a listed free-list leaf.
func TestDonorCodeNamesNoKitType(t *testing.T) {
	forEachDonorImport(t, func(file, imp string) {
		switch imp {
		case "oskit/internal/com", "oskit/internal/hw", "oskit/internal/core", "oskit/internal/libc":
			t.Errorf("donor file %s imports %s", file, imp)
		}
	})
	forEachDonorFile(t, func(file string, af *ast.File) {
		leaf, hasLeaf := donorLeafLocks[filepath.ToSlash(file)]
		ast.Inspect(af, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
				recv := analysis.ExprPath(sel.X)
				if !hasLeaf || !strings.HasSuffix("."+recv, "."+leaf) {
					t.Errorf("donor file %s: %s.%s takes a lock that is not its free-list leaf; a component's exclusion belongs in its glue",
						file, recv, sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestFigure1Structure: the figure is computed from the code.  Every
// kit package a component imports is an inventory row, donor files
// import only their environment package and the leaf libraries, and the
// rendering carries the figure's three layers and distinguishes
// encapsulated donor code as the figure's shading did.
func TestFigure1Structure(t *testing.T) {
	edges, err := structure.Edges(".")
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]bool{
		"oskit/internal/freebsd/glue": true, "oskit/internal/linux/legacy": true,
		"oskit/internal/stats": true, "oskit/internal/cksum": true,
	}
	forEachDonorImport(t, func(file, imp string) {
		if strings.HasPrefix(imp, "oskit/") && !env[imp] {
			t.Errorf("donor file %s imports %s: not its environment package or a leaf library", file, imp)
		}
	})
	var buf bytes.Buffer
	core.WriteStructure(&buf, edges)
	out := buf.String()
	cli := strings.Index(out, "Client Operating System")
	nat := strings.Index(out, "[native]")
	glue := strings.Index(out, "[glue]")
	enc := strings.Index(out, "[encapsulated]")
	if cli < 0 || nat < 0 || glue < 0 || enc < 0 {
		t.Fatalf("structure missing layers:\n%s", out)
	}
	if !(cli < nat && nat < glue && glue < enc) {
		t.Fatal("layers out of order: client OS on top, donor code at the bottom")
	}
	for _, comp := range []string{"freebsd_net", "linux_legacy", "netbsd_fs"} {
		after := out[enc:]
		if !strings.Contains(after, comp) {
			t.Errorf("%s not in the encapsulated layer", comp)
		}
	}
}

// TestSubstrateDoesNoProtocolArithmetic: the simulated platform and the
// donor driver layer move frames; transport checksums are the stacks'
// business, so neither depends on the checksum kernel.
func TestSubstrateDoesNoProtocolArithmetic(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./internal/hw", "./internal/linux/legacy").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "oskit/internal/cksum" {
			t.Fatal("internal/hw or internal/linux/legacy depends on oskit/internal/cksum")
		}
	}
}

// TestAnalyzerSuite: the oskitcheck analyzers register without name
// conflicts and each declares exactly one run hook, and the driver
// lists them all.
func TestAnalyzerSuite(t *testing.T) {
	if err := analysis.Validate(suite.All()); err != nil {
		t.Fatal(err)
	}
	want := []string{"comref", "lockhook", "guarded", "guidreg", "detsource"}
	var got []string
	for _, a := range suite.All() {
		got = append(got, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("suite analyzers = %v, want %v", got, want)
	}
	list, err := exec.Command("go", "run", "./cmd/oskitcheck", "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("oskitcheck -list: %v\n%s", err, list)
	}
	for _, name := range want {
		if !strings.Contains(string(list), name) {
			t.Errorf("oskitcheck -list output missing analyzer %q:\n%s", name, list)
		}
	}
}

// TestLintSkipsTestFiles: internal/analysis/testskip has a clean
// non-test file and a _test.go that violates its guarded annotation.
// oskitcheck must stay silent on it: test files are outside the
// invariants.
func TestLintSkipsTestFiles(t *testing.T) {
	out, err := exec.Command("go", "run", "./cmd/oskitcheck", "./internal/analysis/testskip/").CombinedOutput()
	if err != nil {
		t.Fatalf("oskitcheck flagged the test-only violation: %v\n%s", err, out)
	}
}

// TestExamplesExist: the deliverable layout — a quickstart plus the
// domain examples — stays intact.
func TestExamplesExist(t *testing.T) {
	for _, ex := range []string{"quickstart", "ttcp", "rtcp", "netcomputer", "fileserver"} {
		if _, err := os.Stat(filepath.Join("examples", ex, "main.go")); err != nil {
			t.Errorf("example %s: %v", ex, err)
		}
	}
}
