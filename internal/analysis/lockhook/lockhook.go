// Package lockhook flags calls that can run arbitrary interposed code —
// a registered fault or stats hook, an env.MemAlloc-style allocator
// interposer, any function-typed struct field — while a sync.Mutex or
// sync.RWMutex is held.  Hooks are installed by other components
// (internal/faults, stats readers, tests) and may call back into the
// object that invoked them; doing so under that object's own lock is the
// self-deadlock fixed by hand in NIC.deliver (PR 4), and under any lock
// it inverts lock order against the hook's own synchronization.
//
// Detection is intra-package: a call is "hook-like" if it invokes a
// function-typed struct field (directly, or via a local variable the
// field was copied into), and the property propagates through the
// package-local call graph, so a helper that fires a hook taints its
// callers too.  Which mutexes are held at each statement is decided by
// the walk the lock analyzers share (analysis.WalkLocks): x.mu.Lock()
// opens a held region closed by x.mu.Unlock(), defer x.mu.Unlock() holds
// to the end of the function, a core.ComponentLock's Enter/Leave are its
// Lock/Unlock, and every clause gets its own copy of the set.  Function literals are not scanned as part of the enclosing region
// (a callback built under a lock runs later, not under it).
//
// The pass also enforces the documented lock hierarchy (E14).  A mutex
// type (sync.Mutex, sync.RWMutex, core.ComponentLock, or a struct
// embedding one) whose named type carries an
//
//	//oskit:lockrank N
//
// directive in its doc comment is a ranked lock.  Ranks order
// acquisition: while any ranked lock is held, only locks of strictly
// higher rank may be acquired.  Acquiring an equal or lower rank is
// reported — the deadlock-prone shape — and a deliberate same-rank
// nesting written in one body carries an //oskit:allow waiver at the
// site, keeping every exception visible.  Like the hook rule the
// rank rule is intra-package and linear per function: it catches
// inversions written in one function body, not orders threaded through
// call chains or across packages.
//
// The two rules partition the locks: the hook rule applies to plain
// (unranked) mutexes, whose job is to guard hook registries and small
// object state, while ranked locks are a component's declared internal
// exclusion — the data path under them invokes its own interposition
// points (the interface output binding, allocator services) on purpose,
// and what may nest under a ranked lock is governed by the hierarchy
// declaration instead.
package lockhook

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"oskit/internal/analysis"
)

// Analyzer is the lockhook pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockhook",
	Doc:  "no fault/stats hook or interposable function field may be called while a sync.Mutex/RWMutex is held; //oskit:lockrank locks must be acquired in increasing rank order",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, mayHook: map[*types.Func]bool{}, ranks: analysis.CollectLockRanks(pass.Package)}
	// Round 1: functions that call a hook field, or a local copy of one.
	type fnDecl struct {
		fn     *types.Func
		decl   *ast.FuncDecl
		locals map[types.Object]string
	}
	var decls []fnDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			c.hookLocals = c.collectHookLocals(fd.Body)
			decls = append(decls, fnDecl{obj, fd, c.hookLocals})
			if calls(fd.Body, func(call *ast.CallExpr) bool { return c.hookCall(call) != "" }) {
				c.mayHook[obj] = true
			}
		}
	}
	// Fixpoint: propagate may-call-hook through package-local calls.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if !c.mayHook[d.fn] && calls(d.decl.Body, func(call *ast.CallExpr) bool {
				callee := analysis.CalleeFunc(pass.Info, call)
				return callee != nil && c.mayHook[callee]
			}) {
				c.mayHook[d.fn] = true
				changed = true
			}
		}
	}
	// Round 2: scan each function's lock regions.
	for _, d := range decls {
		c.hookLocals = d.locals
		analysis.WalkLocks[int](pass.Info, c, d.decl.Body)
	}
	return nil
}

// calls reports whether body makes a call satisfying pred, ignoring
// nested function literals (they run later, not at this call site).
func calls(body *ast.BlockStmt, pred func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			found = found || pred(n)
		}
		return !found
	})
	return found
}

type checker struct {
	pass    *analysis.Pass
	mayHook map[*types.Func]bool
	// hookLocals are the current function's local copies of hook
	// fields, mapped to the field they copy.
	hookLocals map[types.Object]string
	// ranks holds the package's //oskit:lockrank declarations.
	ranks analysis.LockRanks
}

// hookField returns a description if expr selects a function-typed
// struct field — the interposition points this analyzer protects.
func (c *checker) hookField(e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := c.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	if _, isFunc := s.Obj().Type().Underlying().(*types.Signature); !isFunc {
		return "", false
	}
	return analysis.ExprPath(sel), true
}

// collectHookLocals finds the local variables assigned from hook fields
// (hook := n.rxHook), so calls through them are recognized too.
func (c *checker) collectHookLocals(body *ast.BlockStmt) map[types.Object]string {
	locals := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, r := range as.Rhs {
				id, isID := as.Lhs[i].(*ast.Ident)
				if desc, ok := c.hookField(r); ok && isID {
					if obj := c.pass.Info.ObjectOf(id); obj != nil {
						locals[obj] = desc
					}
				}
			}
		}
		return true
	})
	return locals
}

// hookCall describes call if it invokes a hook field ("n.rxHook") or a
// local copy of one ("n.rxHook (via hook)"), and is "" otherwise.
func (c *checker) hookCall(call *ast.CallExpr) string {
	if desc, ok := c.hookField(call.Fun); ok {
		return desc
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if desc, ok := c.hookLocals[c.pass.Info.Uses[id]]; ok {
			return desc + " (via " + id.Name + ")"
		}
	}
	return ""
}

// Mutex keys a held lock by its receiver path and records its rank.
func (c *checker) Mutex(x ast.Expr, _ bool) (string, int) {
	return analysis.ExprPath(x), c.ranks.Of(c.pass.Info.TypeOf(x))
}

// Expr reports hook-like calls inside e made while an unranked mutex is
// held.  Nested function literals are skipped: they execute later.
// Ranked locks are exempt from the hook rule — their contents are the
// component's own data path, policed by the rank rule.
func (c *checker) Expr(e ast.Expr, held map[string]int, _ bool) {
	if !hasUnranked(held) {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.Call(n, held, held)
			return false
		}
		return true
	})
}

// Call checks a call's operands under one set and its callee under
// another (they differ only for a go statement).
func (c *checker) Call(call *ast.CallExpr, operands, callee map[string]int) {
	c.Expr(call.Fun, operands, false)
	for _, a := range call.Args {
		c.Expr(a, operands, false)
	}
	if hasUnranked(callee) {
		c.checkCall(call, callee)
	}
}

// Assigned has nothing to record: the hook locals are collected up front.
func (c *checker) Assigned(*ast.AssignStmt) {}

// Acquire reports an acquisition that violates the declared lock
// hierarchy: while a ranked lock is held, only strictly higher ranks
// may be taken.  Unranked mutexes (rank 0) stay outside the rule.
func (c *checker) Acquire(pos token.Pos, path string, rank int, held map[string]int) {
	if rank == 0 {
		return
	}
	for heldPath, heldRank := range held {
		if heldRank == 0 || heldRank < rank {
			continue
		}
		c.pass.Reportf(pos, "acquiring %s (lockrank %d) while holding %s (lockrank %d) violates the lock hierarchy (acquire in increasing rank order)", path, rank, heldPath, heldRank)
	}
}

// hasUnranked reports whether any plain (rank 0) mutex is held.
func hasUnranked(held map[string]int) bool {
	for _, rank := range held {
		if rank == 0 {
			return true
		}
	}
	return false
}

// heldList names the held unranked mutexes for a hook diagnostic.
func heldList(held map[string]int) string {
	keys := make([]string, 0, len(held))
	for k, rank := range held {
		if rank == 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func (c *checker) checkCall(call *ast.CallExpr, held map[string]int) {
	if _, isField := c.hookField(call.Fun); isField {
		c.pass.Reportf(call.Pos(), "call to hook/interposer field %s while mutex %s is held (hooks may call back or take their own locks)", c.hookCall(call), heldList(held))
	} else if desc := c.hookCall(call); desc != "" {
		c.pass.Reportf(call.Pos(), "call to hook/interposer %s while mutex %s is held", desc, heldList(held))
	} else if callee := analysis.CalleeFunc(c.pass.Info, call); callee != nil && c.mayHook[callee] {
		c.pass.Reportf(call.Pos(), "call to %s, which may invoke a hook/interposer, while mutex %s is held", callee.Name(), heldList(held))
	}
}
