package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHold forbids blocking operations while a sync.Mutex or sync.RWMutex
// is held in the serving layer. The engine's liveness argument depends on
// its critical sections being short and non-blocking: admission (Search)
// holds closeMu only around a non-blocking queue reservation, and Close
// releases it before joining the worker pools. A channel send or receive, a
// select without a default, a WaitGroup/Cond Wait, time.Sleep, file or
// network I/O, or a call into a same-package function that does any of
// these while a lock is held can deadlock the engine outright (Close
// waiting on workers that need the lock) or stall every other request on a
// critical section that now waits on the scheduler.
//
// The analysis is per-function and flow-aware in straight lines and
// branches: after an if/select/switch, a mutex counts as held only if every
// surviving branch still holds it. Deferred unlocks keep the lock held to
// the end of the function, which is the point: a `defer mu.Unlock()`
// followed by a channel receive is exactly the bug this rule exists for.
var LockHold = &Analyzer{
	Name:       "lockhold",
	Family:     "type-aware",
	Doc:        "no blocking operations (channel ops, Wait, Sleep, I/O, or calls that block) while a sync.Mutex/RWMutex is held in internal/serve",
	NeedsTypes: true,
	Run:        runLockHold,
}

// lockHoldPackages are the import-path suffixes the rule applies to.
var lockHoldPackages = []string{"internal/serve"}

func runLockHold(pass *Pass) {
	applies := false
	for _, suffix := range lockHoldPackages {
		if strings.HasSuffix(pass.Pkg.Path, suffix) {
			applies = true
		}
	}
	if !applies {
		return
	}
	w := &lockWalker{
		pass:     pass,
		info:     pass.Pkg.TypesInfo,
		blocking: map[*types.Func]bool{},
	}

	files := pass.SourceFiles()

	// Fixpoint pre-pass: which same-package functions block? A function
	// blocks if its body contains a direct blocking operation or a call to
	// a function already known to block.
	var decls []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.AST.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				decls = append(decls, fn)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range decls {
			obj, _ := w.info.Defs[fn.Name].(*types.Func)
			if obj == nil || w.blocking[obj] {
				continue
			}
			if w.funcBlocks(fn) {
				w.blocking[obj] = true
				changed = true
			}
		}
	}

	// Reporting pass: walk each function with an empty held set and report
	// every blocking operation reached while a mutex is held.
	for _, fn := range decls {
		w.report = func(pos token.Pos, what string, held map[*types.Var]bool) {
			pass.Reportf(pos, "%s while holding %s; release the lock before blocking",
				what, heldNames(held))
		}
		w.walkStmts(fn.Body.List, map[*types.Var]bool{})
	}
}

// heldNames renders the held mutex set for a message, sorted for
// deterministic output.
func heldNames(held map[*types.Var]bool) string {
	var names []string
	for v := range held {
		names = append(names, v.Name())
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// lockWalker tracks the set of held mutexes through a function body.
type lockWalker struct {
	pass     *Pass
	info     *types.Info
	blocking map[*types.Func]bool
	report   func(pos token.Pos, what string, held map[*types.Var]bool)
}

// funcBlocks reports whether fn's body contains a blocking operation on any
// path, by walking it with a sentinel lock permanently held and counting
// reports.
func (w *lockWalker) funcBlocks(fn *ast.FuncDecl) bool {
	blocks := false
	saved := w.report
	w.report = func(token.Pos, string, map[*types.Var]bool) { blocks = true }
	sentinel := types.NewVar(token.NoPos, nil, "<caller>", types.Typ[types.Invalid])
	w.walkStmts(fn.Body.List, map[*types.Var]bool{sentinel: true})
	w.report = saved
	return blocks
}

func copyHeld(held map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// meetHeld intersects the non-terminated branch outcomes: a mutex is held
// after a branch point only if every surviving path holds it. nil inputs
// mark terminated paths (return/break); if all paths terminate, nil.
func meetHeld(outs ...map[*types.Var]bool) map[*types.Var]bool {
	var live []map[*types.Var]bool
	for _, o := range outs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := copyHeld(live[0])
	for v := range out {
		for _, o := range live[1:] {
			if !o[v] {
				delete(out, v)
				break
			}
		}
	}
	return out
}

// walkStmts threads held through a statement list; nil return means the
// list terminates control flow (return/branch).
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held map[*types.Var]bool) map[*types.Var]bool {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
		if held == nil {
			return nil
		}
	}
	return held
}

func (w *lockWalker) walkStmt(s ast.Stmt, held map[*types.Var]bool) map[*types.Var]bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if v, acquire, ok := w.mutexOp(call); ok {
				held = copyHeld(held)
				if acquire {
					held[v] = true
				} else {
					delete(held, v)
				}
				return held
			}
		}
		w.checkExpr(x.X, held)
		return held
	case *ast.SendStmt:
		if len(held) > 0 {
			w.report(x.Arrow, "channel send", held)
		}
		w.checkExpr(x.Chan, held)
		w.checkExpr(x.Value, held)
		return held
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.checkExpr(e, held)
		}
		for _, e := range x.Lhs {
			w.checkExpr(e, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.checkExpr(e, held)
					}
				}
			}
		}
		return held
	case *ast.IncDecStmt:
		w.checkExpr(x.X, held)
		return held
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.checkExpr(e, held)
		}
		return nil
	case *ast.BranchStmt:
		return nil
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held through the rest of the
		// function; a deferred anything-else runs outside this flow.
		w.checkExprs(x.Call.Args, held)
		return held
	case *ast.GoStmt:
		// The spawned body runs elsewhere; only argument evaluation happens
		// under the lock.
		w.checkExprs(x.Call.Args, held)
		return held
	case *ast.LabeledStmt:
		return w.walkStmt(x.Stmt, held)
	case *ast.BlockStmt:
		return w.walkStmts(x.List, copyHeld(held))
	case *ast.IfStmt:
		if x.Init != nil {
			held = w.walkStmt(x.Init, held)
			if held == nil {
				return nil
			}
		}
		w.checkExpr(x.Cond, held)
		thenOut := w.walkStmts(x.Body.List, copyHeld(held))
		elseOut := copyHeld(held)
		if x.Else != nil {
			elseOut = w.walkStmt(x.Else, copyHeld(held))
		}
		return meetHeld(thenOut, elseOut)
	case *ast.ForStmt:
		if x.Init != nil {
			held = w.walkStmt(x.Init, held)
			if held == nil {
				return nil
			}
		}
		w.checkExpr(x.Cond, held)
		bodyOut := w.walkStmts(x.Body.List, copyHeld(held))
		// The loop may run zero times, so the pre-loop state survives.
		return meetHeld(held, bodyOut)
	case *ast.RangeStmt:
		if len(held) > 0 && isChanType(w.info.TypeOf(x.X)) {
			w.report(x.For, "range over channel", held)
		}
		w.checkExpr(x.X, held)
		bodyOut := w.walkStmts(x.Body.List, copyHeld(held))
		return meetHeld(held, bodyOut)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(held) > 0 {
			w.report(x.Select, "select without a default case", held)
		}
		var outs []map[*types.Var]bool
		for _, c := range x.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			// The comm operation itself is non-blocking when a default
			// exists, and already reported at the select level otherwise.
			outs = append(outs, w.walkStmts(cc.Body, copyHeld(held)))
		}
		if len(outs) == 0 {
			return held
		}
		return meetHeld(outs...)
	case *ast.SwitchStmt:
		if x.Init != nil {
			held = w.walkStmt(x.Init, held)
			if held == nil {
				return nil
			}
		}
		w.checkExpr(x.Tag, held)
		return w.walkClauses(x.Body.List, held)
	case *ast.TypeSwitchStmt:
		return w.walkClauses(x.Body.List, held)
	}
	return held
}

// walkClauses handles switch bodies: the post-state is the meet of every
// surviving clause plus the input (no default means all clauses may be
// skipped).
func (w *lockWalker) walkClauses(clauses []ast.Stmt, held map[*types.Var]bool) map[*types.Var]bool {
	hasDefault := false
	outs := []map[*types.Var]bool{}
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.checkExpr(e, held)
		}
		outs = append(outs, w.walkStmts(cc.Body, copyHeld(held)))
	}
	if !hasDefault {
		outs = append(outs, held)
	}
	if len(outs) == 0 {
		return held
	}
	return meetHeld(outs...)
}

func (w *lockWalker) checkExprs(es []ast.Expr, held map[*types.Var]bool) {
	for _, e := range es {
		w.checkExpr(e, held)
	}
}

// checkExpr reports blocking operations inside an expression evaluated
// while held is non-empty. Function literals are skipped: their bodies run
// when called, not here.
func (w *lockWalker) checkExpr(e ast.Expr, held map[*types.Var]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.report(x.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			if what := w.blockingCall(x); what != "" {
				w.report(x.Pos(), what, held)
			}
		}
		return true
	})
}

// mutexOp recognizes calls to (*sync.Mutex)/(*sync.RWMutex) Lock/RLock/
// Unlock/RUnlock and resolves the mutex to a variable or field object so
// the same lock is tracked across selector spellings.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (v *types.Var, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	fn, isFn := w.info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		v, _ = w.info.Uses[x].(*types.Var)
	case *ast.SelectorExpr:
		v, _ = w.info.Uses[x.Sel].(*types.Var)
	}
	if v == nil {
		return nil, false, false
	}
	return v, acquire, true
}

// blockingCall classifies a call as a blocking operation, returning a
// description or "".
func (w *lockWalker) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// Same-package plain function call.
		if id, isID := call.Fun.(*ast.Ident); isID {
			if fn, isFn := w.info.Uses[id].(*types.Func); isFn && w.blocking[fn] {
				return "call to blocking function " + fn.Name()
			}
		}
		return ""
	}
	if _, _, isMutex := w.mutexOp(call); isMutex {
		return ""
	}
	fn, ok := w.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			return "sync Wait"
		}
	case "os":
		switch fn.Name() {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile",
			"Remove", "RemoveAll", "Mkdir", "MkdirAll", "ReadDir":
			return "os file I/O (" + fn.Name() + ")"
		}
	case "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "Listen", "ListenPacket":
			return "net I/O (" + fn.Name() + ")"
		}
	}
	if w.blocking[fn] {
		return "call to blocking function " + fn.Name()
	}
	return ""
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
