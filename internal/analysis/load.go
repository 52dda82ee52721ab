// Package loading for the analysis suite.
//
// The kit deliberately takes no dependency on golang.org/x/tools, so
// instead of go/packages the loader leans on the go tool itself:
// `go list -export -deps -json` yields compiled export data for every
// dependency (standard library included), and the packages under analysis
// are then parsed and type-checked from source with a gc importer whose
// lookup function reads those export files: full syntax for the packages
// being checked, export data for everything below them.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path string }
}

// LoadConfig selects what to analyze.
type LoadConfig struct {
	// Dir is the directory go commands run in (any directory inside the
	// module); empty means the current directory.
	Dir string
	// Patterns are go list package patterns naming the packages to
	// analyze from source (e.g. "./...").
	Patterns []string
	// ExtraImports are import paths that must be importable (via export
	// data) even if nothing in Patterns depends on them.  The fixture
	// loader uses this for packages a testdata fixture imports.
	ExtraImports []string
}

// goList runs `go list -export -deps -json` over the given patterns and
// decodes the stream.
func goList(dir string, patterns []string, deps bool) ([]*listedPackage, error) {
	args := []string{"list", "-export", "-json=ImportPath,Export,Dir,GoFiles,Standard,Module"}
	if deps {
		args = append(args, "-deps")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		out = append(out, &p)
	}
	return out, nil
}

// exportImporter returns a types.Importer reading gc export data from the
// given importPath→file map.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// newInfo allocates a fully-populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// typeCheckDir parses and type-checks the non-test Go files of one
// directory as the package importPath, resolving imports via exports.
func typeCheckDir(fset *token.FileSet, dir, importPath string, goFiles []string, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: exportImporter(fset, exports)}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		Dir:        dir,
		ImportPath: importPath,
	}, nil
}

// Load builds a Program: the packages matching cfg.Patterns are parsed
// and type-checked from source; their dependencies (and cfg.ExtraImports)
// resolve through compiled export data.
func Load(cfg LoadConfig) (*Program, error) {
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// One -deps walk provides export data for the whole closure.
	listAll, err := goList(cfg.Dir, append(append([]string{}, patterns...), cfg.ExtraImports...), true)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listAll {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	// A second, shallow list identifies exactly the packages the
	// patterns name (the -deps stream mixes targets and dependencies).
	targets, err := goList(cfg.Dir, patterns, false)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog := &Program{Fset: fset}
	for _, t := range targets {
		if t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheckDir(fset, t.Dir, t.ImportPath, t.GoFiles, exports)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// LoadFixtureDir type-checks a single directory of Go files (typically an
// analysistest fixture under testdata/src/<name>) that is invisible to go
// list.  Imports are resolved by listing the fixture's own import paths
// from moduleDir and reading their export data.
func LoadFixtureDir(moduleDir, fixtureDir string) (*Program, error) {
	matches, err := filepath.Glob(filepath.Join(fixtureDir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no Go files in %s", fixtureDir)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			importSet[path] = true
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		listed, err := goList(moduleDir, imports, true)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	// The fixture's import path is its path below testdata/src, so a
	// fixture named "internal/hw" exercises path-gated analyzers.
	importPath := filepath.Base(fixtureDir)
	if i := strings.Index(filepath.ToSlash(fixtureDir), "/testdata/src/"); i >= 0 {
		importPath = filepath.ToSlash(fixtureDir)[i+len("/testdata/src/"):]
	}
	info := newInfo()
	conf := types.Config{Importer: exportImporter(fset, exports)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", fixtureDir, err)
	}
	prog := &Program{Fset: fset}
	prog.Packages = append(prog.Packages, &Package{
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
		Dir:        fixtureDir,
		ImportPath: importPath,
	})
	return prog, nil
}
