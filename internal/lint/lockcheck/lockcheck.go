// Package lockcheck implements the finelbvet analyzer that enforces
// mutex discipline on annotated mutexes.
//
// The poll hot path holds its locks for nanoseconds — deliver runs
// under r.mu on every answer an agent read loop demultiplexes, and the
// inquiry fast path encodes its reply only after dropping inqMu. That
// discipline lives or dies on two conventions the compiler cannot see:
// which fields a mutex actually guards, and which operations are too
// slow to run while holding it. lockcheck turns both into annotations:
//
//	type pollRound struct {
//		//lint:guards closed, want, gen
//		mu     sync.Mutex
//		closed bool
//		...
//	}
//
// declares that closed, want, and gen may only be touched while mu is
// held. On every function the analyzer then runs a three-state
// (held / not held / unknown) walk per annotated mutex and reports:
//
//   - guarded-field access while the mutex is definitely not held;
//   - blocking operations while any annotated mutex is definitely
//     held: channel sends and receives (a select with a default case
//     is non-blocking and exempt — the deliver wakeup idiom), selects
//     without a default, Sleep calls (time.Sleep or an injected sleep
//     seam), and WriteTo on a transport.PacketConn;
//   - Lock/Unlock pairing bugs: locking a mutex already definitely
//     held, unlocking one definitely not held, and returning (or
//     falling off the end) while holding a mutex with no deferred
//     unlock — the multi-return leak that defer exists to prevent.
//
// Conventions the walk understands: a function whose name ends in
// "Locked" is called with its receiver's and parameters' annotated
// mutexes already held (the pruneLocked/keepLocked idiom); branches
// that end in return do not merge back (the early-unlock-return
// shape); a deferred unlock covers only the paths that registered it,
// so a defer inside one branch does not excuse its siblings; function
// literals start in the unknown state, because the analyzer cannot
// know when they run — they are checked only for locks they take
// themselves. Both states of a merge disagreeing yields unknown, and
// unknown never reports: every diagnostic is a definite violation on
// every path that reaches it.
//
// Malformed //lint:guards directives (not on a sync.Mutex/RWMutex
// field, naming unknown fields, naming no fields, or guarding one
// field with two mutexes) are themselves reported: a directive that
// binds nothing checks nothing. Intentional exceptions — the round
// owner reading a generation counter it alone may write — are
// annotated in place with `//lint:allow lockcheck <reason>`.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"finelb/internal/lint/analysis"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "enforce //lint:guards mutex discipline: guarded fields only under the lock, no blocking while held, no return while held",
	Run:  run,
}

// transportPathSuffix identifies the seam package whose WriteTo is a
// network round trip (suffix-matched so fixture stubs bind too).
const transportPathSuffix = "internal/transport"

const guardsMarker = "//lint:guards"

// lockState is the three-valued verdict for one mutex on one path.
type lockState int

const (
	unknown lockState = iota
	held
	notHeld
)

// mutexInfo is one annotated mutex field and the sibling fields it
// guards.
type mutexInfo struct {
	field  string
	guards map[string]bool
}

// structInfo collects a struct type's annotated mutexes.
type structInfo struct {
	mutexes []mutexInfo
	// guardOf maps each guarded field to its mutex field.
	guardOf map[string]string
}

// checker carries the per-package context through every function walk.
type checker struct {
	pass       *analysis.Pass
	guards     map[*types.TypeName]*structInfo
	packetConn *types.Interface // nil when the seam is not imported
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:       pass,
		guards:     collectGuards(pass),
		packetConn: seamPacketConn(pass),
	}
	if len(c.guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// collectGuards parses every //lint:guards directive in the package,
// reporting malformed ones in place.
func collectGuards(pass *analysis.Pass) map[*types.TypeName]*structInfo {
	out := make(map[*types.TypeName]*structInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			fieldNames := make(map[string]bool)
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					fieldNames[id.Name] = true
				}
			}
			var info *structInfo
			for _, field := range st.Fields.List {
				dir, pos := guardsDirective(field)
				if dir == "" {
					continue
				}
				names := parseGuardList(dir)
				if len(names) == 0 {
					pass.Reportf(pos, "//lint:guards names no fields (want //lint:guards <field>[, <field>...]); it guards nothing")
					continue
				}
				if len(field.Names) != 1 || !isMutexField(pass, field) {
					pass.Reportf(pos, "//lint:guards must annotate a single sync.Mutex or sync.RWMutex field; it guards nothing")
					continue
				}
				mu := field.Names[0].Name
				if info == nil {
					info = &structInfo{guardOf: make(map[string]string)}
				}
				mi := mutexInfo{field: mu, guards: make(map[string]bool)}
				for _, g := range names {
					switch {
					case !fieldNames[g]:
						pass.Reportf(pos, "//lint:guards names %s, which is not a field of %s; it guards nothing", g, ts.Name.Name)
					case g == mu:
						pass.Reportf(pos, "//lint:guards lists the mutex %s as its own guarded field", g)
					case info.guardOf[g] != "":
						pass.Reportf(pos, "field %s is already guarded by %s; one field, one mutex", g, info.guardOf[g])
					default:
						mi.guards[g] = true
						info.guardOf[g] = mu
					}
				}
				if len(mi.guards) > 0 {
					info.mutexes = append(info.mutexes, mi)
				}
			}
			if info != nil && tn != nil {
				out[tn] = info
			}
			return true
		})
	}
	return out
}

// guardsDirective extracts the //lint:guards payload from a field's
// doc or trailing comment.
func guardsDirective(field *ast.Field) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, guardsMarker); ok {
				return " " + rest, c.Pos()
			}
		}
	}
	return "", token.NoPos
}

// parseGuardList splits "a, b c" into field names.
func parseGuardList(s string) []string {
	var out []string
	for _, f := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// isMutexField reports whether the field's type is sync.Mutex or
// sync.RWMutex.
func isMutexField(pass *analysis.Pass, field *ast.Field) bool {
	tv, ok := pass.TypesInfo.Types[field.Type]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// seamPacketConn resolves transport.PacketConn from the import graph.
func seamPacketConn(pass *analysis.Pass) *types.Interface {
	var seam *types.Package
	if strings.HasSuffix(pass.Pkg.Path(), transportPathSuffix) {
		seam = pass.Pkg
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] || seam != nil {
			return
		}
		seen[p] = true
		if strings.HasSuffix(p.Path(), transportPathSuffix) {
			seam = p
			return
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, imp := range pass.Pkg.Imports() {
		walk(imp)
	}
	if seam == nil {
		return nil
	}
	obj, ok := seam.Scope().Lookup("PacketConn").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// walkCtx is the state of one function (or literal) walk.
type walkCtx struct {
	st       map[string]lockState
	deferred map[string]bool // keys with a deferred unlock on every path here
	dflt     lockState       // state of keys never touched on this unit
}

func (w *walkCtx) get(key string) lockState {
	if s, ok := w.st[key]; ok {
		return s
	}
	return w.dflt
}

func (w *walkCtx) set(key string, s lockState) { w.st[key] = s }

// anyHeld returns a definitely-held key, or "".
func (w *walkCtx) anyHeld() string {
	for k, s := range w.st {
		if s == held {
			return k
		}
	}
	return ""
}

func (w *walkCtx) clone() *walkCtx {
	c := &walkCtx{
		st:       make(map[string]lockState, len(w.st)),
		deferred: make(map[string]bool, len(w.deferred)),
		dflt:     w.dflt,
	}
	for k, v := range w.st {
		c.st[k] = v
	}
	for k := range w.deferred {
		c.deferred[k] = true
	}
	return c
}

// mergeInto folds other's state into w: agreement survives, conflict
// becomes unknown, and a deferred unlock survives only if both paths
// registered it (a defer inside a branch covers that branch alone).
func (w *walkCtx) mergeInto(other *walkCtx) {
	for k := range w.deferred {
		if !other.deferred[k] {
			delete(w.deferred, k)
		}
	}
	for k := range other.st {
		if w.get(k) != other.get(k) {
			w.set(k, unknown)
		}
	}
	for k := range w.st {
		if w.get(k) != other.get(k) {
			w.set(k, unknown)
		}
	}
}

// checkFunc walks one function declaration.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	w := &walkCtx{
		st:       make(map[string]lockState),
		deferred: make(map[string]bool),
		dflt:     notHeld,
	}
	// The *Locked convention: the caller already holds the annotated
	// mutexes of the receiver and parameters.
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
			if fl == nil {
				continue
			}
			for _, field := range fl.List {
				for _, id := range field.Names {
					obj := c.pass.TypesInfo.ObjectOf(id)
					if obj == nil {
						continue
					}
					if info := c.infoFor(obj.Type()); info != nil {
						for _, mi := range info.mutexes {
							key := id.Name + "." + mi.field
							w.set(key, held)
							// The caller unlocks: returning while held
							// is this convention's whole point.
							w.deferred[key] = true
						}
					}
				}
			}
		}
	}
	term := c.walkStmt(w, fd.Body)
	if !term {
		c.reportHeldAtExit(w, fd.Body.Rbrace, "falls off the end")
	}
	// Literals are separate units: unknown start, so only the locks
	// they take themselves can produce reports.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || lit.Body == nil {
			return true
		}
		lw := &walkCtx{st: make(map[string]lockState), deferred: make(map[string]bool), dflt: unknown}
		lterm := c.walkStmt(lw, lit.Body)
		if !lterm {
			c.reportHeldAtExit(lw, lit.Body.Rbrace, "falls off the end")
		}
		return true // descend: nested literals are their own units too
	})
}

func (c *checker) reportHeldAtExit(w *walkCtx, pos token.Pos, how string) {
	for k, s := range w.st {
		if s == held && !w.deferred[k] {
			c.pass.Reportf(pos, "%s %s still held (no deferred unlock); every exit path must release it", k, how)
		}
	}
}

// walkStmt processes one statement, returning whether the path
// terminates (return, or a branch out of the linear flow).
func (c *checker) walkStmt(w *walkCtx, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			if c.walkStmt(w, st) {
				return true
			}
		}
		return false
	case *ast.ExprStmt:
		if key, op, ok := c.lockOp(s.X); ok {
			c.applyLockOp(w, s.Pos(), key, op)
			return false
		}
		c.scanExpr(w, s.X)
		return isPanic(s.X)
	case *ast.DeferStmt:
		for _, key := range c.deferredUnlocks(s.Call) {
			w.deferred[key] = true
		}
		for _, a := range s.Call.Args {
			c.scanExpr(w, a)
		}
		return false
	case *ast.GoStmt:
		// The goroutine body runs under its own schedule; only the
		// argument expressions evaluate here.
		for _, a := range s.Call.Args {
			c.scanExpr(w, a)
		}
		return false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.scanExpr(w, e)
		}
		for _, e := range s.Lhs {
			c.scanExpr(w, e)
		}
		return false
	case *ast.IncDecStmt:
		c.scanExpr(w, s.X)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scanExpr(w, v)
					}
				}
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scanExpr(w, e)
		}
		for k, st := range w.st {
			if st == held && !w.deferred[k] {
				c.pass.Reportf(s.Pos(), "return while %s is held (no deferred unlock); unlock first or defer the unlock", k)
			}
		}
		return true
	case *ast.BranchStmt:
		return true // leaves this linear flow; the loop merge re-adds the pre-state
	case *ast.SendStmt:
		if k := w.anyHeld(); k != "" {
			c.pass.Reportf(s.Pos(), "channel send while %s is held can block the lock; use a select with default or send after unlocking", k)
		}
		c.scanExpr(w, s.Value)
		return false
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(w, s.Init)
		}
		c.scanExpr(w, s.Cond)
		thenW := w.clone()
		thenTerm := c.walkStmt(thenW, s.Body)
		elseW := w.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(elseW, s.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*w = *elseW
		case elseTerm:
			*w = *thenW
		default:
			thenW.mergeInto(elseW)
			*w = *thenW
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(w, s.Init)
		}
		if s.Cond != nil {
			c.scanExpr(w, s.Cond)
		}
		bodyW := w.clone()
		c.walkStmt(bodyW, s.Body)
		if s.Post != nil {
			c.walkStmt(bodyW, s.Post)
		}
		w.mergeInto(bodyW) // zero or more iterations
		return false
	case *ast.RangeStmt:
		c.scanExpr(w, s.X)
		bodyW := w.clone()
		c.walkStmt(bodyW, s.Body)
		w.mergeInto(bodyW)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return c.walkSwitch(w, s)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if k := w.anyHeld(); k != "" {
				c.pass.Reportf(s.Pos(), "select without a default case while %s is held can block the lock; add a default or move it after the unlock", k)
			}
		}
		pre := w.clone()
		first := true
		allTerm := true
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			cw := pre.clone()
			if cc.Comm != nil {
				c.walkCommClause(cw, cc.Comm)
			}
			term := false
			for _, st := range cc.Body {
				if term = c.walkStmt(cw, st); term {
					break
				}
			}
			if term {
				continue
			}
			allTerm = false
			if first {
				*w = *cw
				first = false
			} else {
				w.mergeInto(cw)
			}
		}
		if allTerm && len(s.Body.List) > 0 {
			return true // whichever clause fires, the path ends
		}
		if first { // every clause terminated but no default: fall through conservatively
			*w = *pre
		}
		return false
	case *ast.LabeledStmt:
		return c.walkStmt(w, s.Stmt)
	}
	return false
}

// walkCommClause evaluates a select case's communication without
// treating it as blocking (the select machinery handles readiness).
func (c *checker) walkCommClause(w *walkCtx, comm ast.Stmt) {
	switch s := comm.(type) {
	case *ast.SendStmt:
		c.scanGuardedOnly(w, s.Chan)
		c.scanGuardedOnly(w, s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.scanGuardedOnly(w, e)
		}
	case *ast.ExprStmt:
		c.scanGuardedOnly(w, s.X)
	}
}

// walkSwitch handles switch and type-switch: each case runs from the
// pre-state; missing default keeps the pre-state live.
func (c *checker) walkSwitch(w *walkCtx, s ast.Stmt) bool {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(w, s.Init)
		}
		if s.Tag != nil {
			c.scanExpr(w, s.Tag)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(w, s.Init)
		}
		body = s.Body
	}
	pre := w.clone()
	first := true
	hasDefault := false
	allTerm := true
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cw := pre.clone()
		term := false
		for _, st := range cc.Body {
			if term = c.walkStmt(cw, st); term {
				break
			}
		}
		if term {
			continue
		}
		allTerm = false
		if first {
			*w = *cw
			first = false
		} else {
			w.mergeInto(cw)
		}
	}
	if !hasDefault || first {
		if first {
			*w = *pre
		} else {
			w.mergeInto(pre)
		}
	}
	return allTerm && hasDefault && len(body.List) > 0
}

// lockOp recognizes `<expr>.<mutexField>.Lock()` and friends on an
// annotated mutex, returning the textual key and the operation.
func (c *checker) lockOp(e ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	k := c.mutexKey(sel.X)
	if k == "" {
		return "", "", false
	}
	return k, sel.Sel.Name, true
}

// mutexKey resolves an expression denoting an annotated mutex field
// (base.mu) to its textual key, or "".
func (c *checker) mutexKey(e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	info := c.infoForExpr(sel.X)
	if info == nil {
		return ""
	}
	for _, mi := range info.mutexes {
		if mi.field == sel.Sel.Name {
			return render(sel.X) + "." + sel.Sel.Name
		}
	}
	return ""
}

func (c *checker) applyLockOp(w *walkCtx, pos token.Pos, key, op string) {
	switch op {
	case "Lock", "RLock":
		if w.get(key) == held {
			c.pass.Reportf(pos, "%s.%s while %s is already held: self-deadlock", key, op, key)
		}
		w.set(key, held)
	case "Unlock", "RUnlock":
		if w.get(key) == notHeld {
			c.pass.Reportf(pos, "%s.%s while %s is not held", key, op, key)
		}
		w.set(key, notHeld)
	}
}

// deferredUnlocks extracts the mutex keys a defer releases: a direct
// `defer x.mu.Unlock()` or unlocks inside a deferred literal.
func (c *checker) deferredUnlocks(call *ast.CallExpr) []string {
	if key, op, ok := c.lockOp(call); ok && (op == "Unlock" || op == "RUnlock") {
		return []string{key}
	}
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return nil
	}
	var keys []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if key, op, ok := c.lockOp(inner); ok && (op == "Unlock" || op == "RUnlock") {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

// scanExpr checks one expression for guarded-field accesses and, when
// a mutex is definitely held, for blocking operations. Function
// literals are pruned — they are separate units.
func (c *checker) scanExpr(w *walkCtx, e ast.Expr) {
	c.scan(w, e, true)
}

// scanGuardedOnly checks guarded accesses without the blocking rules
// (used inside select communications, which do not block the lock).
func (c *checker) scanGuardedOnly(w *walkCtx, e ast.Expr) {
	c.scan(w, e, false)
}

func (c *checker) scan(w *walkCtx, e ast.Expr, blocking bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			c.checkGuardedAccess(w, n)
			return true
		case *ast.UnaryExpr:
			if blocking && n.Op == token.ARROW {
				if k := w.anyHeld(); k != "" {
					c.pass.Reportf(n.Pos(), "channel receive while %s is held can block the lock; receive after unlocking", k)
				}
			}
			return true
		case *ast.CallExpr:
			if blocking {
				c.checkBlockingCall(w, n)
			}
			return true
		}
		return true
	})
}

// checkGuardedAccess reports base.field when field is guarded and the
// guarding mutex is definitely not held.
func (c *checker) checkGuardedAccess(w *walkCtx, sel *ast.SelectorExpr) {
	info := c.infoForExpr(sel.X)
	if info == nil {
		return
	}
	mu, ok := info.guardOf[sel.Sel.Name]
	if !ok {
		return
	}
	key := render(sel.X) + "." + mu
	if w.get(key) == notHeld {
		c.pass.Reportf(sel.Pos(),
			"%s.%s is guarded by %s (//lint:guards) and accessed without it held",
			render(sel.X), sel.Sel.Name, key)
	}
}

// checkBlockingCall flags Sleep-shaped calls and seam WriteTo while a
// mutex is definitely held.
func (c *checker) checkBlockingCall(w *walkCtx, call *ast.CallExpr) {
	k := w.anyHeld()
	if k == "" {
		return
	}
	var name string
	var recv ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		recv = fun.X
	case *ast.Ident:
		name = fun.Name
	default:
		return
	}
	switch {
	case strings.EqualFold(name, "sleep"):
		c.pass.Reportf(call.Pos(), "%s call while %s is held stalls every contender; sleep after unlocking", name, k)
	case name == "WriteTo" && c.packetConn != nil && recv != nil:
		tv, ok := c.pass.TypesInfo.Types[recv]
		if ok && tv.Type != nil && types.Implements(tv.Type, c.packetConn) {
			c.pass.Reportf(call.Pos(), "WriteTo on the transport seam while %s is held puts a network write inside the critical section; encode under the lock, write after unlocking", k)
		}
	}
}

// infoForExpr resolves the annotated-struct info for an expression's
// type (through pointers), or nil.
func (c *checker) infoForExpr(e ast.Expr) *structInfo {
	tv, ok := c.pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok {
		return nil
	}
	return c.infoFor(tv.Type)
}

func (c *checker) infoFor(t types.Type) *structInfo {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return c.guards[named.Obj()]
}

// isPanic reports whether e is a call to the panic builtin.
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// render prints the textual key of a base expression.
func render(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return render(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + render(e.X)
	case *ast.CallExpr:
		return render(e.Fun) + "()"
	}
	return "?"
}
