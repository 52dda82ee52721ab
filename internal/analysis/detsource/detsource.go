// Package detsource guards the seed-reproducibility contract from PR 2:
// every fault decision, and everything the simulated hardware does in
// response, must replay bit-for-bit from `seed=N`.  In the packages on
// that contract — internal/faults, internal/hw, and the encapsulated
// donor glue (internal/linux, internal/freebsd, internal/netbsd) — the
// analyzer flags the three ways wall-clock and scheduler entropy leak
// into decision streams:
//
//   - time.Now / time.Since / time.Until and friends (wall-clock reads;
//     simulated time comes from hw.Timer ticks);
//   - the math/rand and math/rand/v2 package-level convenience functions,
//     which draw from the global, process-seeded source (rand.New over an
//     explicit seeded Source remains fine: it is how the seeded workloads
//     draw their streams);
//   - ranging over a map while producing an ordered side effect (append
//     to an outer slice, channel send, or stream write): Go randomizes
//     map iteration order per run, so the output order diverges between
//     replays.  Collect-then-sort is recognized and allowed.
package detsource

import (
	"go/ast"
	"go/types"
	"strings"

	"oskit/internal/analysis"
)

// Analyzer is the detsource pass.
var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc:  "determinism-contract packages may not read wall clocks, the global rand source, or emit map-ordered side effects",
	Run:  run,
}

// gatedSuffixes are the import-path subtrees under the determinism
// contract (matched as path segments below the module root).
var gatedSuffixes = []string{
	"internal/faults",
	"internal/hw",
	"internal/linux",
	"internal/freebsd",
	"internal/netbsd",
}

// Gated reports whether an import path is under the determinism contract.
func Gated(importPath string) bool {
	for _, s := range gatedSuffixes {
		if strings.HasSuffix(importPath, s) || strings.Contains(importPath, s+"/") {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read the machine
// clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// seededConstructors are the math/rand functions that do NOT touch the
// global source and therefore stay allowed.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !Gated(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		checkEntropyUses(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapOrder(pass, fd.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// checkEntropyUses flags wall-clock reads and global-source rand calls.
func checkEntropyUses(pass *analysis.Pass, file *ast.File) {
	for id, obj := range pass.Info.Uses {
		if id.Pos() < file.Pos() || id.Pos() > file.End() {
			continue
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallClockFuncs[fn.Name()] {
				pass.Reportf(id.Pos(), "time.%s reads the wall clock in a determinism-contract package (decisions must replay from seed; use hw.Timer ticks)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if fn.Type().(*types.Signature).Recv() != nil {
				continue // method on an explicitly-seeded *rand.Rand
			}
			if !seededConstructors[fn.Name()] {
				pass.Reportf(id.Pos(), "rand.%s draws from the global process-seeded source (use rand.New with an explicit seed from the fault plan)", fn.Name())
			}
		}
	}
}

// checkMapOrder flags map-range loops whose body produces an ordered side
// effect, unless the collected result is sorted afterwards in the same
// function.
func checkMapOrder(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, body, rng)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside a map range: delivery order depends on map iteration order (iterate a sorted key slice instead)")
		case *ast.AssignStmt:
			// x = append(x, ...) where x is declared outside the loop.
			for i, r := range n.Rhs {
				call, ok := ast.Unparen(r).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				if i >= len(n.Lhs) {
					continue
				}
				target, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Uses[target]
				if obj == nil {
					obj = pass.Info.Defs[target]
				}
				if obj == nil || !declaredOutside(obj, rng) {
					continue
				}
				if sortedLater(pass, fnBody, obj) {
					continue
				}
				pass.Reportf(n.Pos(), "append to %s inside a map range builds a map-ordered slice (sort it afterwards, or iterate sorted keys)", target.Name)
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if fn := analysis.CalleeFunc(pass.Info, call); fn != nil && isStreamWrite(fn) {
					pass.Reportf(n.Pos(), "%s inside a map range emits map-ordered output (iterate a sorted key slice instead)", fn.FullName())
				}
			}
		}
		return true
	})
}

// declaredOutside reports whether obj's declaration precedes the range
// statement (so the slice outlives the loop).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos()
}

// sortedLater reports whether obj is passed to a sort/slices sorting
// function anywhere in the function body (the collect-then-sort idiom).
func sortedLater(pass *analysis.Pass, fnBody *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if analysis.ContainsIdentOf(pass.Info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isStreamWrite reports whether fn is an ordered-output primitive.
func isStreamWrite(fn *types.Func) bool {
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "Fprintf", "Fprintln", "Fprint",
		"Printf", "Println", "Print":
		return true
	}
	return false
}
