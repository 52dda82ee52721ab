// Structural artifact tests: Table 3 (the component inventory that
// cmd/oskit-sizes joins with line counts) and Figure 1 (the layered
// structure cmd/oskit-graph renders).
package oskit_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"oskit/internal/analysis"
	"oskit/internal/analysis/suite"
	"oskit/internal/core"
)

// TestTable3Inventory: every inventory row names a real directory with
// Go source in it, the dependency graph resolves, and the Table 3 rows
// the paper lists (minus the documented exclusions) are all present.
func TestTable3Inventory(t *testing.T) {
	if err := core.CheckInventory(); err != nil {
		t.Fatal(err)
	}
	for _, c := range core.Inventory {
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
		if _, ok := core.FindComponent(name); !ok {
			t.Errorf("Table 3 row %q missing from the inventory", name)
		}
	}
}

// TestFigure1Structure: the rendering carries the figure's three layers
// and distinguishes encapsulated donor code as the figure's shading did.
func TestFigure1Structure(t *testing.T) {
	var buf bytes.Buffer
	core.WriteStructure(&buf)
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
