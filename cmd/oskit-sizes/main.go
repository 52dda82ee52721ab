// oskit-sizes regenerates the paper's Table 3: the "filtered" source
// size of every kit component, broken down by provenance (native vs
// glue vs donor-style encapsulated code) and machine dependence.  An
// encapsulated row's lines split into donor lines and the lines of the
// glue files its inventory row lists.
//
// The paper's filter — applied here line for line — drops comments,
// blank lines, preprocessor directives, and punctuation-only lines
// (e.g. a lone brace), and notes the result is typically 1/4 to 1/2 of
// unfiltered code.  Test files are counted separately (the original had
// no test column; ours is a bonus).
//
// Run from the repository root:
//
//	go run ./cmd/oskit-sizes            # whole kit (Table 3)
//	go run ./cmd/oskit-sizes -config netcomputer   # what examples/netcomputer links
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"oskit/internal/core"
	"oskit/internal/structure"
)

func main() {
	config := flag.String("config", "", "restrict to a named configuration (netcomputer)")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var filter map[string]bool
	switch *config {
	case "":
	case "netcomputer":
		// The §6.2.5 configuration is whatever the example links.
		var err error
		if filter, err = structure.Closure(*root, "examples/netcomputer"); err != nil {
			fatal(err.Error())
		}
	default:
		fatal("unknown -config " + *config)
	}

	fmt.Printf("%-14s %-13s %-4s %8s %8s %8s %8s  %s\n",
		"component", "kind", "arch", "impl", "donor", "glue", "test", "description")
	type totals struct{ impl, test int }
	byKind := map[core.Kind]*totals{}
	grand := &totals{}
	for _, c := range core.Inventory {
		if filter != nil && !filter[c.Name] {
			continue
		}
		impl, glue, test, err := countDir(filepath.Join(*root, c.Dir), c.Glue)
		if err != nil {
			fatal(fmt.Sprintf("%s: %v", c.Dir, err))
		}
		arch := "MI"
		if c.MachineDep {
			arch = "x86*" // simulated-PC-specific, the x86 column's analog
		}
		donor, glueCol := "-", "-"
		if c.Kind == core.KindEncapsulated {
			donor, glueCol = fmt.Sprint(impl-glue), fmt.Sprint(glue)
		}
		fmt.Printf("%-14s %-13s %-4s %8d %8s %8s %8d  %s\n",
			c.Name, c.Kind, arch, impl, donor, glueCol, test, c.Desc)
		t := byKind[c.Kind]
		if t == nil {
			t = &totals{}
			byKind[c.Kind] = t
		}
		t.impl += impl
		t.test += test
		grand.impl += impl
		grand.test += test
	}
	fmt.Println()
	for _, k := range []core.Kind{core.KindNative, core.KindGlue, core.KindEncapsulated} {
		if t := byKind[k]; t != nil {
			fmt.Printf("%-14s %8d implementation + %d test lines\n", k, t.impl, t.test)
		}
	}
	fmt.Printf("%-14s %8d implementation + %d test lines\n", "total", grand.impl, grand.test)
	fmt.Println("\n(Filtered counts per the paper: comments, blanks, and punctuation-only")
	fmt.Println("lines excluded. The paper's kit was 32k native/glue lines fronting 230k")
	fmt.Println("imported C; this kit's donor code is donor-STYLE Go, so the encapsulated")
	fmt.Println("rows are far smaller — see DESIGN.md §6.)")
}

// countDir filters one component directory (non-recursive: components
// are leaf packages); glue counts the implementation lines of the named
// glue files.
func countDir(dir string, glueFiles []string) (impl, glue, test int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		n, err := countFile(filepath.Join(dir, name))
		if err != nil {
			return 0, 0, 0, err
		}
		if strings.HasSuffix(name, "_test.go") {
			test += n
			continue
		}
		impl += n
		if slices.Contains(glueFiles, name) {
			glue += n
		}
	}
	return impl, glue, test, nil
}

// countFile applies the paper's filter to one file.
func countFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	inBlock := false
	for _, line := range strings.Split(string(data), "\n") {
		if counted(line, &inBlock) {
			n++
		}
	}
	return n, nil
}

// counted implements the filter for one line.
func counted(line string, inBlock *bool) bool {
	s := strings.TrimSpace(line)
	// Block comments (rare in gofmt'd code, but the filter is faithful).
	if *inBlock {
		if i := strings.Index(s, "*/"); i >= 0 {
			s = strings.TrimSpace(s[i+2:])
			*inBlock = false
		} else {
			return false
		}
	}
	if i := strings.Index(s, "/*"); i >= 0 && !strings.Contains(s[:i], `"`) {
		if !strings.Contains(s[i:], "*/") {
			*inBlock = true
		}
		s = strings.TrimSpace(s[:i])
	}
	// Line comments (not inside an obvious string literal).
	if i := strings.Index(s, "//"); i >= 0 && strings.Count(s[:i], `"`)%2 == 0 {
		s = strings.TrimSpace(s[:i])
	}
	// Blank and punctuation-only lines (a lone brace, parenthesis, etc.)
	// are dropped.
	return strings.Trim(s, "{}(),;") != ""
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "oskit-sizes:", msg)
	os.Exit(1)
}
