// The held-lock statement walk shared by the lock analyzers (lockhook,
// guarded): one set of rules for which mutexes are held at each
// statement, so the two invariants built on it cannot disagree about it.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strconv"
	"strings"
)

// IsMutex reports whether t (or *t) is a mutex: sync.Mutex,
// sync.RWMutex, or a struct that embeds one (the //oskit:lockrank
// wrapper shape).
func IsMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Embedded() && IsMutex(f.Type()) {
				return true
			}
		}
	}
	return false
}

// LockRanks maps the package's ranked lock types to the rank N their
// doc comment declares with an "//oskit:lockrank N" directive.
type LockRanks map[*types.TypeName]int

// CollectLockRanks finds the named types of pkg whose doc comment
// carries a positive //oskit:lockrank directive.
func CollectLockRanks(pkg *Package) LockRanks {
	ranks := LockRanks{}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
					if rank := rankOf(gd.Doc, ts.Doc); rank > 0 {
						ranks[tn] = rank
					}
				}
			}
		}
	}
	return ranks
}

// rankOf parses the first //oskit:lockrank directive in the doc groups.
func rankOf(groups ...*ast.CommentGroup) int {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, line := range g.List {
			if rest, ok := strings.CutPrefix(line.Text, "//oskit:lockrank"); ok {
				if n, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil && n > 0 {
					return n
				}
			}
		}
	}
	return 0
}

// Of returns the rank of mutex type t (or *t): its named type's
// //oskit:lockrank, or 0 if it has none.
func (r LockRanks) Of(t types.Type) int {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return r[n.Obj()]
	}
	return 0
}

// LockVisitor is what an analyzer hands WalkLocks.  L is its per-lock
// record in the held set (a rank, an ownership record); the walker
// decides which locks are held where, the visitor what that means.
type LockVisitor[L any] interface {
	// Mutex names the receiver x of a Lock-family call on a mutex and
	// builds its held-set record; exclusive is false for RLock and
	// TryRLock.  A release uses only the name.
	Mutex(x ast.Expr, exclusive bool) (string, L)
	// Acquire sees each acquisition before the lock joins held.
	Acquire(pos token.Pos, name string, rec L, held map[string]L)
	// Expr visits an expression evaluated under held; write marks an
	// assignment or IncDec target.  A deferred call arrives here whole:
	// its operands are evaluated now, and its callee runs at exit, under
	// the set in force now (defers run LIFO, so a call deferred after
	// `defer mu.Unlock()` runs with mu held).
	Expr(e ast.Expr, held map[string]L, write bool)
	// Call visits a go statement's call: its operands are evaluated
	// under operands, its callee runs under callee (the empty set).
	Call(call *ast.CallExpr, operands, callee map[string]L)
	// Assigned sees an assignment after its expressions were visited.
	Assigned(s *ast.AssignStmt)
}

// Acquirers maps a package's acquiring methods to the lock each returns
// holding, as the expression its body locks.  An acquiring method locks
// a path from its receiver and unlocks that path nowhere: a component's
// entry prologue, whose caller defers the matching epilogue.
type Acquirers map[*types.Func]ast.Expr

// CollectAcquirers finds pkg's acquiring methods.  Function literals
// inside a body are not part of it (they run later).
func CollectAcquirers(pkg *Package) Acquirers {
	acq := Acquirers{}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			recv := fd.Recv.List[0].Names[0].Name + "."
			locked := map[string]ast.Expr{}
			unlocked := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if e, ok := n.(ast.Expr); ok {
					switch x, op := lockOp(pkg.Info, e); op {
					case "Lock":
						locked[ExprPath(x)] = x
					case "Unlock", "RUnlock":
						unlocked[ExprPath(x)] = true
					}
				}
				return true
			})
			for path, x := range locked {
				if !unlocked[path] && strings.HasPrefix(path, recv) {
					acq[fn] = x
				}
			}
		}
	}
	return acq
}

// WalkLocks walks a function body in statement order, tracking the set
// of held mutexes.  Lock, RLock, TryLock and TryRLock add a lock;
// Unlock and RUnlock remove it; `defer x.Unlock()` keeps it held to the
// end of the function.  A call r.m(…) to an acquiring method in acq adds
// m's lock with r in place of m's receiver, once the expression holding
// the call is visited; its epilogue is expected deferred, so it too is
// held to the end of the function.  Every nested block, if/else arm,
// and switch, type-switch and select clause gets a copy of the set, so
// no acquisition leaks into a sibling clause or past the statement (a
// deliberate under-approximation).  The walk starts with nothing held.
func WalkLocks[L any](info *types.Info, acq Acquirers, v LockVisitor[L], body *ast.BlockStmt) {
	lockWalk[L]{info, acq, v}.stmts(body.List, nil)
}

type lockWalk[L any] struct {
	info *types.Info
	acq  Acquirers
	v    LockVisitor[L]
}

// stmts walks a statement list under a copy of held.
func (w lockWalk[L]) stmts(list []ast.Stmt, held map[string]L) {
	held = clone(held)
	for _, s := range list {
		w.stmt(s, held)
	}
}

func clone[L any](in map[string]L) map[string]L {
	out := make(map[string]L, len(in))
	maps.Copy(out, in)
	return out
}

// lockOp returns the receiver and method name of a Lock-family call
// on a mutex, and op "" for any other expression.
func lockOp(info *types.Info, e ast.Expr) (x ast.Expr, op string) {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
				if t := info.TypeOf(sel.X); t != nil && IsMutex(t) {
					return sel.X, sel.Sel.Name
				}
			}
		}
	}
	return nil, ""
}

// exprs visits the expressions present in es, skipping blank targets,
// then takes the locks of the acquiring calls in them.
func (w lockWalk[L]) exprs(held map[string]L, write bool, es ...ast.Expr) {
	for _, e := range es {
		if id, ok := e.(*ast.Ident); e == nil || ok && id.Name == "_" {
			continue
		}
		w.v.Expr(e, held, write)
		if len(w.acq) > 0 {
			w.acquire(e, held)
		}
	}
}

// acquire adds to held the lock of every acquiring call in e, named
// with the call's receiver in place of the acquirer's own.
func (w lockWalk[L]) acquire(e ast.Expr, held map[string]L) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := w.info.Uses[sel.Sel].(*types.Func)
			x, ok := w.acq[fn]
			if !ok {
				return true
			}
			// The visitor names the call's receiver as it names any
			// path (resolving its aliases), and that name replaces the
			// acquirer's receiver at the head of the lock's.
			name, rec := w.v.Mutex(x, true)
			if i := strings.IndexByte(name, '.'); i >= 0 {
				base, _ := w.v.Mutex(sel.X, true)
				name = base + name[i:]
			}
			w.v.Acquire(n.Pos(), name, rec, held)
			held[name] = rec
		}
		return true
	})
}

// stmt walks one statement, updating held in place.  A statement that
// opens a scope (if, for, switch, select) walks its parts under a copy.
func (w lockWalk[L]) stmt(stmt ast.Stmt, held map[string]L) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		x, op := lockOp(w.info, s.X)
		if op == "" {
			w.exprs(held, false, s.X)
			return
		}
		name, rec := w.v.Mutex(x, op == "Lock" || op == "TryLock")
		if op == "Unlock" || op == "RUnlock" {
			delete(held, name)
			return
		}
		w.v.Acquire(s.X.Pos(), name, rec, held)
		held[name] = rec
	case *ast.IncDecStmt:
		w.exprs(held, true, s.X)
	case *ast.DeferStmt:
		if _, op := lockOp(w.info, s.Call); op == "Unlock" || op == "RUnlock" {
			return // held to the end of the function
		}
		w.exprs(held, false, s.Call)
	case *ast.GoStmt:
		w.v.Call(s.Call, held, map[string]L{})
	case *ast.AssignStmt:
		w.exprs(held, false, s.Rhs...)
		w.exprs(held, true, s.Lhs...)
		w.v.Assigned(s)
	case *ast.ReturnStmt:
		w.exprs(held, false, s.Results...)
	case *ast.SendStmt:
		w.exprs(held, false, s.Chan, s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(held, false, vs.Values...)
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		w.scope(held, s.Init, s.Cond, s.Body, s.Else)
	case *ast.ForStmt:
		w.scope(held, s.Init, s.Cond, s.Body, s.Post)
	case *ast.RangeStmt:
		w.exprs(held, false, s.X)
		w.stmt(s.Body, held)
	case *ast.SwitchStmt:
		w.scope(held, s.Init, s.Tag, s.Body)
	case *ast.TypeSwitchStmt:
		w.scope(held, s.Init, nil, s.Assign, s.Body)
	case *ast.CaseClause:
		w.exprs(held, false, s.List...)
		w.stmts(s.Body, held)
	case *ast.SelectStmt:
		w.stmt(s.Body, held)
	case *ast.CommClause:
		w.stmts(append([]ast.Stmt{s.Comm}, s.Body...), held)
	}
}

// scope walks a statement that opens a scope — its init, its condition
// or tag, then its parts — under one copy of held.
func (w lockWalk[L]) scope(held map[string]L, init ast.Stmt, cond ast.Expr, parts ...ast.Stmt) {
	inner := clone(held)
	w.stmt(init, inner)
	w.exprs(inner, false, cond)
	for _, p := range parts {
		w.stmt(p, inner)
	}
}
