// Package guarded enforces per-field ownership annotations — the
// machine-checked replacement for the prose "field-ownership rules" the
// SMP lock hierarchy used to carry in locks.go.  A struct field (or a
// whole struct, via a directive on the type declaration) declares its
// owner:
//
//	//oskit:guardedby mu          access requires mu held (RLock ok for reads)
//	//oskit:atomic                access only via sync/atomic (&f is the
//	                              sanctioned shape; direct reads/writes flag)
//	//oskit:initonly              written during construction/configuration
//	                              (before concurrency starts), read unguarded
//
// A field has exactly one guard: a dotted field path from the annotated
// field's owning struct ("mu", "s.mu" through a backpointer), or a
// package-scope type qualification ("Stack.mu") meaning "the named lock
// of some instance of that type is held" — for state whose owner lives
// on another object with no backpointer (an ARP entry's stack, a Proc's
// sleep queue).  A compound spec (A+B, A|B) is a bad-spec diagnostic.
//
// The checker tracks locksets intraprocedurally with the walk the lock
// analyzers share (analysis.WalkLocks) — Lock/RLock open a region closed
// by Unlock/RUnlock, defer Unlock holds to function end, a call to an
// acquiring method (an entry prologue) holds its lock to function end, nested blocks
// and clauses get copies so branch acquisitions do not leak — and
// resolves guards through calls: an unguarded access whose base is the
// function's receiver or a parameter becomes a lock *requirement* of
// that function, discharged at every intra-package call site (and
// propagated transitively when the caller passes its own
// receiver/parameter through).  A requirement that survives
// into an exported function is reported there: callers outside the package
// cannot hold package-internal locks, so exported entry points must
// acquire them.
//
// Deliberate under-approximations, chosen to keep the default tree clean
// without hiding the historical bug shapes: guards reached through a
// backpointer (path length > 1, or a type qualification) may be satisfied
// by any held lock of the matching owner type and field — "s.mu held"
// satisfies "so.tcp.s.mu needed" — while sibling guards ("mu") demand an
// exact path match, which is what catches holding the *wrong* instance's
// lock (the TIME_WAIT recycle shape).  Objects still under construction
// are exempt: locals born from composite literals/new/make, plain
// value-struct copies, and writes inside New*/Init*/make-named
// constructors for initonly fields.  Function literals are scanned as
// independent bodies with an empty lockset (they run later, locking for
// themselves), without requirement adoption.  Unexported functions whose
// requirements are never called from package code (test-only helpers;
// test files are excluded from analysis) stay silent — except a method
// that implements a package-declared interface: it is called through
// the interface, so like an exported function it must acquire what it
// needs (a field annotated with one sibling mutex, accessed under the
// other inside an interface method).
// Cross-package field accesses are not checked: annotations live in
// package syntax.
package guarded

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"oskit/internal/analysis"
)

// Analyzer is the guarded pass.
var Analyzer = &analysis.Analyzer{
	Name: "guarded",
	Doc:  "//oskit:guardedby, //oskit:atomic and //oskit:initonly field-ownership annotations must hold: every access to an annotated field happens under its declared lock, via sync/atomic, or before concurrency starts",
	Run:  run,
}

// Annotation directives, recognized in a field's doc or trailing comment
// (or on the struct type declaration, covering every field not carrying
// its own directive).
const (
	guardedByDirective = "//oskit:guardedby"
	atomicDirective    = "//oskit:atomic"
	initOnlyDirective  = "//oskit:initonly"
)

type annKind int

const (
	annGuarded annKind = iota
	annAtomic
	annInitOnly
)

// guardPath is one resolved guard: a dotted field path from the owning
// struct, or a type-qualified lock ("Glue.slpMu").
type guardPath struct {
	raw      string
	segs     []string        // field path from the owning struct (nil if typeQual)
	typeQual bool            // "Type.lock": any holder of that type's lock
	owner    *types.TypeName // named type owning the final lock field
	lock     string          // the lock field's name
}

// fieldAnn is one annotated field.
type fieldAnn struct {
	kind    annKind
	path    *guardPath
	raw     string // spec text, for diagnostics
	ownerTn *types.TypeName
	strct   string // owning struct name, for diagnostics
	field   string
}

// heldLock is one entry of the lockset: how the lock is held and, for
// owner-type alias matching, whose lock it is.
type heldLock struct {
	write bool
	owner *types.TypeName
	lock  string
}

// need is one lock an access demands: an exact canonical path when the
// base expression is a pure chain, and/or an owner-type match.
type need struct {
	canon string // canonical path ("tp.s.mu"), "" if not expressible
	owner *types.TypeName
	lock  string
}

// relNeed is a need expressed relative to a function's receiver or
// parameter, carried by a requirement.  owner (nil = exact-instance
// only) is the matching discipline; ownTn always records the lock
// field's owning type, so a rebase that loses the exact instance can
// degrade to type matching instead of becoming unsatisfiable.
type relNeed struct {
	rel   []string // path below the target object; nil for type-qualified
	owner *types.TypeName
	ownTn *types.TypeName
	lock  string
}

// requirement: "this function must be entered with this lock held on
// its receiver (-1) or parameter (index)".
type requirement struct {
	target int
	rel    relNeed
	write  bool
	strct  string
	field  string
	guard  string
	pos    token.Pos
}

// callSite is one intra-package static call with the caller's lockset.
type callSite struct {
	caller *funcScan
	call   *ast.CallExpr
	held   map[string]*heldLock
	recv   *argInfo
	args   []*argInfo
}

// argInfo describes one argument (or the receiver) at a call site.
type argInfo struct {
	segs  []string
	root  types.Object
	fresh bool
}

type checker struct {
	pass  *analysis.Pass
	anns  map[token.Pos]*fieldAnn
	reqs  map[*types.Func]map[string]*requirement
	sites map[*types.Func][]*callSite
	acq   analysis.Acquirers
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:  pass,
		anns:  map[token.Pos]*fieldAnn{},
		reqs:  map[*types.Func]map[string]*requirement{},
		sites: map[*types.Func][]*callSite{},
		acq:   analysis.CollectAcquirers(pass.Package),
	}
	c.collectAnnotations()
	if len(c.anns) == 0 {
		return nil // unannotated package: nothing to track
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			c.scanFunc(fd, fn)
		}
	}
	c.discharge()
	return nil
}

// --- annotation collection.

func (c *checker) collectAnnotations() {
	for _, file := range c.pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, _ := c.pass.Info.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					continue
				}
				typeDefault := c.parseDirective(tn, gd.Doc, ts.Doc)
				for _, field := range st.Fields.List {
					ann := c.parseDirective(tn, field.Doc, field.Comment)
					if ann == nil {
						ann = typeDefault
					}
					if ann == nil || len(field.Names) == 0 {
						continue // embedded fields stay unannotated
					}
					for _, name := range field.Names {
						if obj, ok := c.pass.Info.Defs[name].(*types.Var); ok {
							a := *ann
							a.field = obj.Name()
							c.anns[obj.Pos()] = &a
						}
					}
				}
			}
		}
	}
}

// parseDirective finds the first annotation directive in the comment
// groups and resolves it against the owning struct, reporting malformed
// specs in place.  Field name is filled in by the caller.
func (c *checker) parseDirective(tn *types.TypeName, groups ...*ast.CommentGroup) *fieldAnn {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, line := range g.List {
			text := line.Text
			switch {
			case text == atomicDirective || strings.HasPrefix(text, atomicDirective+" "):
				return &fieldAnn{kind: annAtomic, ownerTn: tn, strct: tn.Name()}
			case text == initOnlyDirective || strings.HasPrefix(text, initOnlyDirective+" "):
				return &fieldAnn{kind: annInitOnly, ownerTn: tn, strct: tn.Name()}
			case strings.HasPrefix(text, guardedByDirective):
				rest := strings.TrimPrefix(text, guardedByDirective)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				spec := strings.TrimSpace(rest)
				if i := strings.Index(spec, " "); i >= 0 {
					spec = spec[:i]
				}
				if spec == "" {
					c.pass.Reportf(line.Pos(), "%s needs a guard: a field path (mu, s.mu) or Type.lock", guardedByDirective)
					return nil
				}
				return c.resolveSpec(tn, spec, line.Pos())
			}
		}
	}
	return nil
}

func (c *checker) resolveSpec(tn *types.TypeName, spec string, pos token.Pos) *fieldAnn {
	err := "a field has one guard, not a compound of several"
	var gp *guardPath
	if !strings.ContainsAny(spec, "+|") {
		gp, err = c.resolvePath(tn, spec)
	}
	if err != "" {
		c.pass.Reportf(pos, "bad %s spec %q: %s", guardedByDirective, spec, err)
		return nil
	}
	return &fieldAnn{kind: annGuarded, path: gp, raw: spec, ownerTn: tn, strct: tn.Name()}
}

// resolvePath validates one guard path against the owning struct (or the
// package scope, for Type.lock qualifications) and records the lock's
// owner type for alias matching.
func (c *checker) resolvePath(tn *types.TypeName, path string) (*guardPath, string) {
	segs := strings.Split(path, ".")
	// A two-segment path whose head is not a field but names a
	// package-scope struct type is a type qualification.
	if len(segs) == 2 && fieldOf(tn.Type(), segs[0]) == nil {
		if qtn, ok := c.pass.Pkg.Scope().Lookup(segs[0]).(*types.TypeName); ok {
			f := fieldOf(qtn.Type(), segs[1])
			if f == nil {
				return nil, fmt.Sprintf("type %s has no field %q", segs[0], segs[1])
			}
			if !analysis.IsMutex(f.Type()) {
				return nil, fmt.Sprintf("%s.%s is not a sync.Mutex/RWMutex (or a wrapper embedding one)", segs[0], segs[1])
			}
			return &guardPath{raw: path, typeQual: true, owner: qtn, lock: segs[1]}, ""
		}
	}
	cur := tn.Type()
	ownerTn := tn
	for i, seg := range segs {
		f := fieldOf(cur, seg)
		if f == nil {
			return nil, fmt.Sprintf("no field %q in %s", seg, typeName(cur))
		}
		if i == len(segs)-1 {
			if !analysis.IsMutex(f.Type()) {
				return nil, fmt.Sprintf("%q is not a sync.Mutex/RWMutex (or a wrapper embedding one)", path)
			}
		} else {
			cur = f.Type()
			ownerTn = namedTypeName(cur)
		}
	}
	return &guardPath{raw: path, segs: segs, owner: ownerTn, lock: segs[len(segs)-1]}, ""
}

// fieldOf finds a direct field by name in t's underlying struct.
func fieldOf(t types.Type, name string) *types.Var {
	st, ok := deref(t).Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func namedTypeName(t types.Type) *types.TypeName {
	if n, ok := deref(t).(*types.Named); ok {
		return n.Obj()
	}
	if a, ok := deref(t).(*types.Alias); ok {
		return a.Obj()
	}
	return nil
}

func typeName(t types.Type) string {
	if tn := namedTypeName(t); tn != nil {
		return tn.Name()
	}
	return t.String()
}

// --- function scanning.

type funcScan struct {
	c       *checker
	fn      *types.Func // nil inside a function literal
	recv    types.Object
	params  []types.Object
	ctor    bool
	lit     bool
	aliases map[types.Object][]string     // local := pure selector chain
	roots   map[types.Object]types.Object // alias's ultimate root object
	fresh   map[types.Object]bool         // locals born from lit/new/make
}

// ctorName reports whether a function name marks construction-time code,
// where initonly writes are legal.
func ctorName(name string) bool {
	if name == "init" {
		return true
	}
	for _, p := range []string{"New", "new", "Init", "init", "Make", "make", "mk"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func (c *checker) scanFunc(fd *ast.FuncDecl, fn *types.Func) {
	fs := &funcScan{
		c: c, fn: fn, ctor: ctorName(fn.Name()),
		aliases: map[types.Object][]string{},
		roots:   map[types.Object]types.Object{},
		fresh:   map[types.Object]bool{},
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		fs.recv = c.pass.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			fs.params = append(fs.params, nil)
			continue
		}
		for _, n := range f.Names {
			fs.params = append(fs.params, c.pass.Info.Defs[n])
		}
	}
	analysis.WalkLocks[*heldLock](c.pass.Info, c.acq, fs, fd.Body)
}

// scanLit scans a function literal as an independent body: empty lockset
// (it runs later; it locks for itself), aliases inherited for naming,
// no requirement adoption and no construction-time freshness (the
// enclosing function may have published the objects by the time it runs).
func (c *checker) scanLit(lit *ast.FuncLit, outer *funcScan) {
	fs := &funcScan{
		c: c, lit: true,
		aliases: map[types.Object][]string{},
		roots:   map[types.Object]types.Object{},
		fresh:   map[types.Object]bool{},
	}
	for k, v := range outer.aliases {
		fs.aliases[k] = v
	}
	for k, v := range outer.roots {
		fs.roots[k] = v
	}
	analysis.WalkLocks[*heldLock](c.pass.Info, c.acq, fs, lit.Body)
}

func (fs *funcScan) targetOf(o types.Object) (int, bool) {
	if o == nil || fs.lit {
		return 0, false
	}
	if o == fs.recv && o != nil {
		return -1, true
	}
	for i, p := range fs.params {
		if p != nil && p == o {
			return i, true
		}
	}
	return 0, false
}

// chain decomposes a pure selector chain into segments and its root
// identifier; returns nil segments for any other shape.
func (fs *funcScan) chain(e ast.Expr) ([]string, *ast.Ident) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return []string{e.Name}, e
	case *ast.SelectorExpr:
		segs, root := fs.chain(e.X)
		if segs == nil {
			return nil, nil
		}
		return append(segs, e.Sel.Name), root
	case *ast.StarExpr:
		return fs.chain(e.X)
	}
	return nil, nil
}

// canon renders e as a canonical dotted path with local aliases expanded
// (tp := so.tcp makes "tp.mu" canonical as "so.tcp.mu"), plus the
// ultimate root object.  Non-pure shapes return nil segments.
func (fs *funcScan) canon(e ast.Expr) ([]string, types.Object) {
	segs, rootID := fs.chain(e)
	if segs == nil {
		return nil, nil
	}
	root := fs.c.objOf(rootID)
	if root == nil {
		return segs, nil
	}
	if pre, ok := fs.aliases[root]; ok {
		out := append(append([]string{}, pre...), segs[1:]...)
		return out, fs.roots[root]
	}
	return segs, root
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if o := c.pass.Info.Uses[id]; o != nil {
		return o
	}
	return c.pass.Info.Defs[id]
}

// freshExpr reports expressions that build a new, unpublished object.
func freshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new" || id.Name == "make"
		}
	}
	return false
}

// valueLocal reports whether o is a function-local variable (or value
// parameter/receiver) holding a plain struct value: a per-goroutine copy
// whose fields cannot race.
func (fs *funcScan) valueLocal(o types.Object) bool {
	v, ok := o.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Parent() == fs.c.pass.Pkg.Scope() {
		return false // package-level state is shared
	}
	switch v.Type().Underlying().(type) {
	case *types.Struct, *types.Basic, *types.Array:
		return true
	}
	return false
}

// --- the analysis.LockVisitor side of the lockset walk.

// Mutex keys a held lock by its canonical path (local aliases expanded)
// and records how it is held and whose lock it is.
func (fs *funcScan) Mutex(x ast.Expr, exclusive bool) (string, *heldLock) {
	segs, _ := fs.canon(x)
	if segs == nil {
		segs = []string{analysis.ExprPath(x)}
	}
	h := &heldLock{write: exclusive, lock: segs[len(segs)-1]}
	if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
		if ot := fs.c.pass.Info.TypeOf(sel.X); ot != nil {
			h.owner = namedTypeName(ot)
		}
	}
	return strings.Join(segs, "."), h
}

// Acquire has nothing to check: ownership is about accesses, not order.
func (fs *funcScan) Acquire(token.Pos, string, *heldLock, map[string]*heldLock) {}

// Assigned updates the alias and freshness maps after an assignment.
func (fs *funcScan) Assigned(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, l := range s.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := fs.c.objOf(id)
		if obj == nil {
			continue
		}
		delete(fs.aliases, obj)
		delete(fs.roots, obj)
		delete(fs.fresh, obj)
		r := ast.Unparen(s.Rhs[i])
		if freshExpr(r) {
			fs.fresh[obj] = true
			continue
		}
		// tp := so.tcp (and sb := &tp.sndBuf) make tp/sb aliases.
		target := r
		if ue, ok := r.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			target = ast.Unparen(ue.X)
		}
		if _, isSel := target.(*ast.SelectorExpr); isSel {
			if segs, root := fs.canon(target); segs != nil && root != nil {
				fs.aliases[obj] = segs
				fs.roots[obj] = root
				if fs.fresh[root] {
					fs.fresh[obj] = true
				}
			}
		}
	}
}

// --- expression walk.

type accessKind int

const (
	accessNormal accessKind = iota
	accessAddr
	accessRecv
)

// Expr checks every annotated field e touches under held; write marks
// e itself as a store.
func (fs *funcScan) Expr(e ast.Expr, held map[string]*heldLock, write bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident, *ast.BasicLit:
	case *ast.SelectorExpr:
		fs.checkAccess(e, held, write, accessNormal)
		// A write lands on the selected field; it propagates to the
		// base only through value embedding.  A pointer-typed base is
		// merely loaded — the write mutates the pointee, not the base.
		if write {
			if _, isPtr := fs.c.pass.Info.TypeOf(e.X).Underlying().(*types.Pointer); isPtr {
				write = false
			}
		}
		fs.Expr(e.X, held, write)
	case *ast.StarExpr:
		fs.Expr(e.X, held, write)
	case *ast.ParenExpr:
		fs.Expr(e.X, held, write)
	case *ast.IndexExpr:
		fs.Expr(e.X, held, write)
		fs.Expr(e.Index, held, false)
	case *ast.IndexListExpr:
		fs.Expr(e.X, held, write)
	case *ast.SliceExpr:
		fs.Expr(e.X, held, write)
		fs.Expr(e.Low, held, false)
		fs.Expr(e.High, held, false)
		fs.Expr(e.Max, held, false)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				fs.checkAccess(sel, held, true, accessAddr)
				fs.Expr(sel.X, held, false)
				return
			}
		}
		fs.Expr(e.X, held, false)
	case *ast.BinaryExpr:
		fs.Expr(e.X, held, false)
		fs.Expr(e.Y, held, false)
	case *ast.CallExpr:
		fs.Call(e, held, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fs.Expr(kv.Key, held, false)
				fs.Expr(kv.Value, held, false)
				continue
			}
			fs.Expr(el, held, false)
		}
	case *ast.KeyValueExpr:
		fs.Expr(e.Key, held, false)
		fs.Expr(e.Value, held, false)
	case *ast.TypeAssertExpr:
		fs.Expr(e.X, held, false)
	case *ast.FuncLit:
		fs.c.scanLit(e, fs)
	}
}

// Call walks a call's operands under held but records the call site
// with siteHeld (empty for go statements: the callee runs outside the
// caller's critical section).
func (fs *funcScan) Call(call *ast.CallExpr, held, siteHeld map[string]*heldLock) {
	info := fs.c.pass.Info
	// Mutating builtins write their first argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			for i, a := range call.Args {
				w := i == 0 && (b.Name() == "delete" || b.Name() == "clear" || b.Name() == "copy")
				fs.Expr(a, held, w)
			}
			return
		}
	}
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok {
			switch s.Kind() {
			case types.MethodVal:
				recvExpr = sel.X
				if rsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					// A guarded field used as method receiver: pointer
					// receivers may mutate, value receivers only read.
					// A field that is itself a pointer is only loaded —
					// the method mutates the pointee, not the field.
					w := ptrRecv(s.Obj())
					if _, isPtr := info.TypeOf(rsel).Underlying().(*types.Pointer); isPtr {
						w = false
					}
					fs.checkAccess(rsel, held, w, accessRecv)
					fs.Expr(rsel.X, held, false)
				} else {
					fs.Expr(sel.X, held, false)
				}
			case types.FieldVal:
				// Calling a function-typed field reads the field.
				fs.checkAccess(sel, held, false, accessNormal)
				fs.Expr(sel.X, held, false)
			default:
				fs.Expr(sel.X, held, false)
			}
		}
		// Package-qualified calls (atomic.AddUint64): nothing to check
		// on the Fun itself.
	} else {
		fs.Expr(call.Fun, held, false)
	}
	for _, a := range call.Args {
		fs.Expr(a, held, false)
	}
	// Record intra-package static call sites for requirement discharge.
	callee := analysis.CalleeFunc(info, call)
	if callee == nil || callee.Pkg() != fs.c.pass.Pkg {
		return
	}
	site := &callSite{caller: fs, call: call, held: maps.Clone(siteHeld)}
	if recvExpr != nil {
		site.recv = fs.argInfoOf(recvExpr)
	}
	for _, a := range call.Args {
		site.args = append(site.args, fs.argInfoOf(a))
	}
	fs.c.sites[callee] = append(fs.c.sites[callee], site)
}

func ptrRecv(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return true
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	return isPtr
}

func (fs *funcScan) argInfoOf(e ast.Expr) *argInfo {
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	segs, root := fs.canon(e)
	fresh := freshExpr(e) || (root != nil && fs.fresh[root])
	return &argInfo{segs: segs, root: root, fresh: fresh}
}

// --- the access check.

func (fs *funcScan) checkAccess(sel *ast.SelectorExpr, held map[string]*heldLock, write bool, kind accessKind) {
	s, ok := fs.c.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	ann := fs.c.anns[s.Obj().Pos()]
	if ann == nil {
		return
	}
	baseSegs, baseRoot := fs.canon(sel.X)
	if baseRoot != nil && (fs.fresh[baseRoot] || fs.valueLocal(baseRoot)) {
		return // object under construction or a per-goroutine value copy
	}
	if freshExpr(sel.X) {
		return
	}
	switch ann.kind {
	case annAtomic:
		if kind == accessAddr || kind == accessRecv {
			return // &f feeds sync/atomic; methods are atomic.T's own
		}
		fs.c.pass.Reportf(sel.Sel.Pos(), "non-atomic %s of %s.%s (%s): access it via sync/atomic",
			rw(write), ann.strct, ann.field, atomicDirective)
	case annInitOnly:
		if !write {
			return // reads are free: the field is quiescent after init
		}
		if fs.ctor || fs.lockOnBase(held, baseSegs, ann.ownerTn) {
			return
		}
		fs.c.pass.Reportf(sel.Sel.Pos(), "write to %s.%s outside construction (%s): config fields are written before traffic, or under one of the owner's locks",
			ann.strct, ann.field, initOnlyDirective)
	case annGuarded:
		w := write || kind == accessAddr
		n := buildNeed(ann.path, baseSegs)
		if matchNeed(held, n, w) {
			return
		}
		// A waiver on the access line absorbs the obligation: report
		// here (the driver suppresses it and counts the waiver used)
		// rather than pushing the requirement onto every caller.
		if fs.c.pass.Waived(sel.Sel.Pos()) {
			fs.c.pass.Reportf(sel.Sel.Pos(), "%s %s.%s needs %s (%s %s)",
				rwTo(w), ann.strct, ann.field, describe(n, w), guardedByDirective, ann.raw)
			return
		}
		if baseRoot != nil && baseSegs != nil {
			if t, ok := fs.targetOf(baseRoot); ok {
				fs.c.addReq(fs.fn, reqFor(ann, t, baseSegs, w, sel.Sel.Pos()))
				return // the obligation moves to this function's callers
			}
		}
		// A function-local base the callers cannot name (a ranged
		// element, a map value, a lookup result): the exact-instance
		// discipline is untrackable, so the obligation degrades to its
		// type-qualified form and still travels up the call graph.
		// Package-level vars stay exact: their path is globally
		// meaningful, so the precise report here beats a degraded one.
		if fs.fn != nil && isFuncLocal(baseRoot) {
			if r := annReq(ann, w).ambient(pathRel(ann.path), sel.Sel.Pos()); r != nil {
				fs.c.addReq(fs.fn, r)
				return
			}
		}
		fs.c.pass.Reportf(sel.Sel.Pos(), "%s %s.%s needs %s (%s %s)",
			rwTo(w), ann.strct, ann.field, describe(n, w), guardedByDirective, ann.raw)
	}
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func rwTo(write bool) string {
	if write {
		return "write to"
	}
	return "read of"
}

// lockOnBase reports whether any held lock plausibly belongs to the
// accessed object: a lock under the base path, or any lock whose owner
// is the annotated struct type (the Ifconfig-holds-s.mu shape).
func (fs *funcScan) lockOnBase(held map[string]*heldLock, baseSegs []string, ownerTn *types.TypeName) bool {
	prefix := ""
	if baseSegs != nil {
		prefix = strings.Join(baseSegs, ".") + "."
	}
	for path, h := range held {
		if prefix != "" && strings.HasPrefix(path, prefix) {
			return true
		}
		if h.owner != nil && h.owner == ownerTn {
			return true
		}
	}
	return false
}

// buildNeed is the lock an access through baseSegs to a field guarded
// by gp demands.
func buildNeed(gp *guardPath, baseSegs []string) need {
	base := ""
	if baseSegs != nil {
		base = strings.Join(baseSegs, ".")
	}
	n := need{lock: gp.lock}
	if !gp.typeQual && base != "" {
		n.canon = base + "." + strings.Join(gp.segs, ".")
	}
	// Backpointer and type-qualified guards accept any holder of the
	// owner type's lock; sibling guards ("mu") demand the exact
	// instance — unless the base is inexpressible, where the type
	// match is the only handle left.
	if gp.typeQual || len(gp.segs) > 1 || base == "" {
		n.owner = gp.owner
	}
	return n
}

func matchNeed(held map[string]*heldLock, n need, write bool) bool {
	if n.canon != "" {
		if h := held[n.canon]; h != nil && (h.write || !write) {
			return true
		}
	}
	if n.owner != nil {
		for _, h := range held {
			if h.owner == n.owner && h.lock == n.lock && (h.write || !write) {
				return true
			}
		}
	}
	return false
}

func describe(n need, write bool) string {
	var what string
	switch {
	case n.canon != "":
		what = n.canon
	case n.owner != nil:
		what = "a " + n.owner.Name() + "." + n.lock
	default:
		what = n.lock
	}
	if write {
		return what + " held exclusively"
	}
	return what + " held"
}

// --- requirements: guard obligations discharged at call sites.

// annReq is the template of every obligation an access to ann makes.
func annReq(ann *fieldAnn, write bool) *requirement {
	return &requirement{write: write, strct: ann.strct, field: ann.field, guard: ann.raw}
}

// derive is r's obligation carried to target with the given need.
func (r *requirement) derive(target int, rel relNeed, pos token.Pos) *requirement {
	return &requirement{
		target: target, rel: rel, write: r.write,
		strct: r.strct, field: r.field, guard: r.guard, pos: pos,
	}
}

// pathRel is the need of a guard path, before any rebasing.
func pathRel(gp *guardPath) relNeed {
	return relNeed{owner: gp.owner, ownTn: gp.owner, lock: gp.lock}
}

func reqFor(ann *fieldAnn, target int, baseSegs []string, write bool, pos token.Pos) *requirement {
	gp := ann.path
	rel := pathRel(gp)
	below := baseSegs[1:] // path from the target object down to the base
	if !gp.typeQual {
		rel.rel = append(append([]string{}, below...), gp.segs...)
		if len(gp.segs) == 1 && len(below) == 0 {
			// Sibling guard rooted directly at the target keeps its
			// exact-instance discipline at call sites too.
			rel.owner = nil
		}
	}
	return annReq(ann, write).derive(target, rel, pos)
}

// isFuncLocal reports whether o is a variable declared inside some
// function body (not a package-level var, parameter, or field).
func isFuncLocal(o types.Object) bool {
	v, ok := o.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	scope := v.Parent()
	if scope == nil {
		return false
	}
	return scope != v.Pkg().Scope() && scope.Parent() != types.Universe
}

// ambient expresses r's obligation, with the need rn, on an object the
// function's callers cannot name: the need degrades to "any holder of
// the owner type's lock" (target -2, no argument binding).  Nil if it
// has no owner type to degrade to.
func (r *requirement) ambient(rn relNeed, pos token.Pos) *requirement {
	if rn.ownTn == nil {
		return nil
	}
	return r.derive(-2, relNeed{owner: rn.ownTn, ownTn: rn.ownTn, lock: rn.lock}, pos)
}

// addReq records r on fn unless an identical obligation is there.
func (c *checker) addReq(fn *types.Func, r *requirement) bool {
	if fn == nil {
		return false
	}
	o := ""
	if r.rel.owner != nil {
		o = r.rel.owner.Name()
	}
	key := fmt.Sprintf("%d|%v|%s@%s.%s", r.target, r.write, strings.Join(r.rel.rel, "."), o, r.rel.lock)
	m := c.reqs[fn]
	if m == nil {
		m = map[string]*requirement{}
		c.reqs[fn] = m
	}
	if _, ok := m[key]; ok {
		return false
	}
	m[key] = r
	return true
}

// needAt instantiates a requirement's need at a call site argument.
func needAt(r *requirement, ai *argInfo) need {
	base := ""
	if ai != nil && ai.segs != nil {
		base = strings.Join(ai.segs, ".")
	}
	rn := r.rel
	n := need{owner: rn.owner, lock: rn.lock}
	if rn.rel != nil && base != "" {
		n.canon = base + "." + strings.Join(rn.rel, ".")
	}
	return n
}

// discharge checks every requirement against every recorded call site,
// propagating through callers that pass their own receiver or parameters,
// until the obligation is met, reported at an unsatisfiable site, or
// surfaces in an exported function.
func (c *checker) discharge() {
	type siteReq struct {
		site *callSite
		key  string
	}
	done := map[siteReq]bool{}
	for changed := true; changed; {
		changed = false
		for fn, reqs := range c.reqs {
			for _, site := range c.sites[fn] {
				for key, r := range reqs {
					sr := siteReq{site, key}
					if done[sr] {
						continue
					}
					done[sr] = true
					ai := site.recv
					if r.target >= 0 {
						if r.target >= len(site.args) {
							continue // variadic/mismatched shape: skip
						}
						ai = site.args[r.target]
					}
					if r.target == -2 {
						ai = nil // ambient: type-qualified, no binding
					} else if ai == nil || ai.fresh {
						continue
					}
					n := needAt(r, ai)
					if matchNeed(site.held, n, r.write) {
						continue
					}
					// A waiver on the call line absorbs the callee's
					// obligations at this site: report here (the
					// driver suppresses it, marking the waiver used)
					// instead of propagating further up.
					if c.pass.Waived(site.call.Pos()) {
						c.pass.Reportf(site.call.Pos(), "call to %s needs %s: the callee accesses %s.%s (%s %s)",
							fn.Name(), describe(n, r.write), r.strct, r.field, guardedByDirective, r.guard)
						continue
					}
					if r.target == -2 && site.caller != nil && site.caller.fn != nil {
						// Ambient obligations forward unchanged: they
						// carry no argument binding to rebase.
						if c.addReq(site.caller.fn, r.derive(-2, r.rel, site.call.Pos())) {
							changed = true
						}
						continue
					}
					if ai != nil && ai.root != nil && ai.segs != nil && site.caller != nil {
						if t, ok := site.caller.targetOf(ai.root); ok {
							rn := r.rel
							below := ai.segs[1:]
							nrn := relNeed{owner: rn.owner, ownTn: rn.ownTn, lock: rn.lock}
							if rn.rel != nil {
								nrn.rel = append(append([]string{}, below...), rn.rel...)
							}
							if len(below) > 0 && nrn.owner == nil {
								// Rebasing through an intermediate
								// field loses the exact instance;
								// fall back to owner-type matching.
								nrn.owner = rn.ownTn
							}
							if c.addReq(site.caller.fn, r.derive(t, nrn, site.call.Pos())) {
								changed = true
							}
							continue
						}
						if isFuncLocal(ai.root) && site.caller.fn != nil {
							// A caller-local binding (range element,
							// lookup result): degrade the unmet
							// obligation to its type-qualified form and
							// keep walking the call graph.
							if nr := r.ambient(r.rel, site.call.Pos()); nr != nil {
								if c.addReq(site.caller.fn, nr) {
									changed = true
								}
								continue
							}
						}
					}
					c.pass.Reportf(site.call.Pos(), "call to %s needs %s: the callee accesses %s.%s (%s %s)",
						fn.Name(), describe(n, r.write), r.strct, r.field, guardedByDirective, r.guard)
				}
			}
		}
	}
	// Requirements surviving in exported functions can never be met:
	// callers outside the package cannot hold package-internal locks.
	// The same goes for an unexported method reached through an
	// interface: no static call site exists to discharge them.
	for fn, reqs := range c.reqs {
		entry := "exported"
		if !ast.IsExported(fn.Name()) {
			if !c.dynamicEntry(fn) {
				continue // unexported and uncalled stays silent (test-only helpers)
			}
			entry = "interface method"
		}
		for _, r := range reqs {
			n := need{owner: r.rel.owner, lock: r.rel.lock, canon: strings.Join(r.rel.rel, ".")}
			c.pass.Reportf(r.pos, "%s %s reaches %s.%s (%s %s) without %s: acquire the lock inside the entry point",
				entry, fn.Name(), r.strct, r.field, guardedByDirective, r.guard, describe(n, r.write))
		}
	}
}

// dynamicEntry reports whether an unexported method is an entry point
// all the same: its receiver implements a package-declared interface
// listing the method, so package code calls it through the interface.
func (c *checker) dynamicEntry(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	scope := c.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok || !types.Implements(recv.Type(), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}
