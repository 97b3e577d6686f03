package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnsafeLife tracks zero-copy views derived from mmap'd regions. The store
// maps column files and reinterprets the bytes in place (unsafe.Slice /
// unsafe.Pointer casts); any such view is only valid while the mapping is
// alive, and the mapping's lifetime is guarded by the owning struct's reader
// lock. The rule enforces three contracts:
//
//   - Confinement: unsafe.Pointer / unsafe.Slice may only appear in
//     internal/store. Anywhere else, zero-copy reinterpretation is a
//     lifetime bug waiting to happen and is flagged outright.
//   - Escape: a value tainted by syscall.Mmap (directly or through cast
//     helpers, slicing, or alias-returning functions) must not be returned
//     from an exported function, stored in a package-level variable, stored
//     into a struct with no mutex guarding its lifetime, passed to a
//     function that retains it in an unguarded struct, or captured by a
//     goroutine.
//   - Liveness: any function that indexes or reslices a tainted view must
//     hold the owner's lock — directly, by being a constructor that has not
//     published the owner yet, or by being reachable only from functions
//     that do.
//
// The function that calls syscall.Mmap itself (the region owner's
// constructor) is exempt: wrapping the fresh mapping is its job. Taint flows
// context-insensitively through the module call graph via one-hop summaries
// (result-aliases-parameter, retains-parameter), so helpers like castF64 or
// Dense.RawRow propagate taint without special cases. Scalar element reads
// drop taint. Calls through interfaces are not followed (the call graph's
// documented gap).
var UnsafeLife = &Analyzer{
	Name: "unsafelife",
	Doc: "mmap-derived zero-copy views must stay confined to internal/store, must not " +
		"escape the region's lifetime, and must only be dereferenced under the owner's reader lock",
	Family:     "dataflow",
	NeedsTypes: true,
	RunModule:  runUnsafeLife,
}

const storePkgPath = modulePath + "/internal/store"

func isStorePkg(path string) bool {
	return path == storePkgPath || strings.HasPrefix(path, storePkgPath+"/")
}

func runUnsafeLife(pass *ModulePass) {
	// Confinement: unsafe selectors outside internal/store.
	for _, pkg := range pass.Pkgs {
		if pkg.TypesInfo == nil || isStorePkg(pkg.Path) {
			continue
		}
		for _, f := range pass.SourceFiles(pkg) {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pkg.TypesInfo.Uses[id].(*types.PkgName)
				if !ok || pn.Imported().Path() != "unsafe" {
					return true
				}
				pass.Reportf(pkg, sel.Pos(), "unsafe.%s outside internal/store: zero-copy reinterpretation of mapped memory is confined to internal/store", sel.Sel.Name)
				return true
			})
		}
	}

	g := buildCallGraph(pass)
	uc := &unsafeChecker{
		pass:      pass,
		g:         g,
		facts:     computeFuncFacts(g),
		owners:    map[*types.Func]bool{},
		fields:    map[*types.Var]bool{},
		params:    map[*types.Func]map[int]bool{},
		results:   map[*types.Func]bool{},
		vars:      map[*types.Func]map[types.Object]bool{},
		storePkgs: map[*types.Package]bool{},
	}
	for _, pkg := range pass.Pkgs {
		if isStorePkg(pkg.Path) && pkg.Types != nil {
			uc.storePkgs[pkg.Types] = true
		}
	}
	for _, fi := range g.funcs {
		if !isStorePkg(fi.pkg.Path) || fi.decl.Body == nil {
			continue
		}
		uc.storeFns = append(uc.storeFns, fi)
		if containsMmapCall(fi) {
			uc.owners[fi.obj] = true
		}
	}
	if len(uc.storeFns) == 0 {
		return
	}
	for iter := 0; iter < 12; iter++ {
		uc.changed = false
		for _, fi := range uc.storeFns {
			uc.propagate(fi)
		}
		if !uc.changed {
			break
		}
	}
	uc.report()
}

type unsafeChecker struct {
	pass     *ModulePass
	g        *callGraph
	facts    map[*types.Func]*funcFacts
	storeFns []*funcInfo

	owners    map[*types.Func]bool                  // functions calling syscall.Mmap: region constructors, exempt
	fields    map[*types.Var]bool                   // tainted struct fields (store-defined structs only)
	params    map[*types.Func]map[int]bool          // tainted parameters (receiver -1), context-insensitive
	results   map[*types.Func]bool                  // functions returning tainted values
	vars      map[*types.Func]map[types.Object]bool // tainted locals per function
	storePkgs map[*types.Package]bool               // type-level identities of the store packages
	changed   bool
}

func containsMmapCall(fi *funcInfo) bool {
	found := false
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isSyscallMmap(fi.pkg.TypesInfo, call) {
			found = true
		}
		return true
	})
	return found
}

func isSyscallMmap(info *types.Info, call *ast.CallExpr) bool {
	f := calleeOf(info, call)
	return f != nil && f.FullName() == "syscall.Mmap"
}

// pointerLike reports whether values of t carry a reference to backing
// memory (slices, pointers, unsafe.Pointer). Scalars copied out of a view
// drop taint.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func (uc *unsafeChecker) localVars(f *types.Func) map[types.Object]bool {
	m := uc.vars[f]
	if m == nil {
		m = map[types.Object]bool{}
		uc.vars[f] = m
	}
	return m
}

func (uc *unsafeChecker) paramSet(f *types.Func) map[int]bool {
	m := uc.params[f]
	if m == nil {
		m = map[int]bool{}
		uc.params[f] = m
	}
	return m
}

// tainted evaluates whether expr may hold mmap-derived memory under the
// current (partially converged) facts.
func (uc *unsafeChecker) tainted(fi *funcInfo, e ast.Expr) bool {
	info := fi.pkg.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return false
		}
		if uc.localVars(fi.obj)[obj] {
			return true
		}
		if i, isParam := paramIndexOf(fi, obj); isParam {
			return uc.paramSet(fi.obj)[i]
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if fv, ok := sel.Obj().(*types.Var); ok && uc.fields[fv] {
				return true
			}
		}
	case *ast.SliceExpr:
		return uc.tainted(fi, e.X)
	case *ast.StarExpr:
		return uc.tainted(fi, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if ix, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
				return uc.tainted(fi, ix.X)
			}
			return uc.tainted(fi, e.X)
		}
	case *ast.CallExpr:
		if isSyscallMmap(info, e) {
			return true
		}
		// Conversions ((*float64)(p), unsafe.Pointer(x), mytype(v)).
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return uc.tainted(fi, e.Args[0])
		}
		// unsafe.Slice / unsafe.SliceData / unsafe.Add on tainted inputs.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "unsafe" {
					for _, a := range e.Args {
						if uc.tainted(fi, a) {
							return true
						}
					}
					return false
				}
			}
		}
		callee := calleeOf(info, e)
		if callee == nil || uc.g.byObj[callee] == nil {
			return false
		}
		// A call producing a scalar cannot carry the view out, whatever its
		// arguments alias (tuple results are filtered per-value at the
		// assignment).
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			if _, isTuple := tv.Type.(*types.Tuple); !isTuple && !pointerLike(tv.Type) {
				return false
			}
		}
		if uc.results[callee] {
			return true
		}
		f := uc.facts[callee]
		if f == nil {
			return false
		}
		if f.aliasParams[-1] {
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && uc.tainted(fi, sel.X) {
				return true
			}
		}
		for i, a := range e.Args {
			if (f.aliasParams[i] || f.retainsParams[i]) && pointerLike(info.Types[a].Type) && uc.tainted(fi, a) {
				return true
			}
		}
	}
	return false
}

// propagate runs one intra-procedural pass over fi, folding new taint into
// the global maps.
func (uc *unsafeChecker) propagate(fi *funcInfo) {
	info := fi.pkg.TypesInfo
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			uc.propagateAssign(fi, n)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !uc.tainted(fi, kv.Value) {
					continue
				}
				if fv, ok := info.Uses[key].(*types.Var); ok {
					uc.taintField(fv)
				}
			}
		case *ast.CallExpr:
			callee := calleeOf(info, n)
			if callee == nil || uc.g.byObj[callee] == nil {
				return true
			}
			for i, a := range n.Args {
				if pointerLike(info.Types[a].Type) && uc.tainted(fi, a) {
					uc.taintParam(callee, i)
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && uc.tainted(fi, sel.X) {
					uc.taintParam(callee, -1)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if pointerLike(info.Types[r].Type) && uc.tainted(fi, r) && !uc.results[fi.obj] {
					uc.results[fi.obj] = true
					uc.changed = true
				}
			}
		}
		return true
	})
}

func (uc *unsafeChecker) propagateAssign(fi *funcInfo, as *ast.AssignStmt) {
	info := fi.pkg.TypesInfo
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if uc.tainted(fi, as.Rhs[0]) {
			for _, lhs := range as.Lhs {
				uc.taintLHS(fi, lhs)
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if uc.tainted(fi, rhs) {
			uc.taintLHS(fi, as.Lhs[i])
		}
	}
	_ = info
}

func (uc *unsafeChecker) taintLHS(fi *funcInfo, lhs ast.Expr) {
	info := fi.pkg.TypesInfo
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := info.ObjectOf(lhs)
		if obj == nil || !pointerLike(obj.Type()) {
			return
		}
		m := uc.localVars(fi.obj)
		if !m[obj] {
			m[obj] = true
			uc.changed = true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			if fv, ok := sel.Obj().(*types.Var); ok {
				uc.taintField(fv)
			}
		}
	}
}

func (uc *unsafeChecker) taintField(fv *types.Var) {
	if fv.Pkg() == nil || !uc.storePkgs[fv.Pkg()] || !pointerLike(fv.Type()) {
		return
	}
	if !uc.fields[fv] {
		uc.fields[fv] = true
		uc.changed = true
	}
}

func (uc *unsafeChecker) taintParam(f *types.Func, i int) {
	m := uc.paramSet(f)
	if !m[i] {
		m[i] = true
		uc.changed = true
	}
}

// hasMutexField reports whether t's underlying struct carries a sync.Mutex
// or sync.RWMutex field — the marker of a lifetime-guarded owner.
func hasMutexField(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if named, ok := ft.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
				(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
				return true
			}
		}
	}
	return false
}

// hasOwnerLockCall reports whether body calls Lock/RLock on a sync mutex.
func hasOwnerLockCall(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
			switch f.FullName() {
			case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
				found = true
			}
		}
		return true
	})
	return found
}

// isGuardedConstructor reports whether body builds a mutex-bearing owner
// struct from scratch — taint handling before the owner is published needs
// no lock.
func isGuardedConstructor(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if tv, ok := info.Types[lit]; ok && hasMutexField(tv.Type) {
			found = true
		}
		return true
	})
	return found
}

// report emits findings using the converged taint facts.
func (uc *unsafeChecker) report() {
	type deref struct {
		fi  *funcInfo
		pos token.Pos
	}
	var derefs []deref
	seenDeref := map[*types.Func]bool{}

	for _, fi := range uc.storeFns {
		if uc.owners[fi.obj] {
			continue
		}
		info := fi.pkg.TypesInfo
		// Exported-return check: walk the body without descending into
		// closures, so only the function's own returns are attributed.
		if fi.obj.Exported() {
			ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, r := range ret.Results {
					if pointerLike(info.Types[r].Type) && uc.tainted(fi, r) {
						uc.pass.Reportf(fi.pkg, r.Pos(), "exported %s returns an mmap-backed view; the region can be unmapped while the caller still holds it — copy, or document and lock", qualifiedName(fi.obj))
					}
				}
				return true
			})
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				uc.reportAssign(fi, n)
			case *ast.CallExpr:
				uc.reportRetention(fi, n)
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					uc.reportGoroutineCapture(fi, lit)
				}
			case *ast.IndexExpr:
				if uc.tainted(fi, n.X) && !seenDeref[fi.obj] {
					seenDeref[fi.obj] = true
					derefs = append(derefs, deref{fi, n.Pos()})
				}
			case *ast.SliceExpr:
				if uc.tainted(fi, n.X) && !seenDeref[fi.obj] {
					seenDeref[fi.obj] = true
					derefs = append(derefs, deref{fi, n.Pos()})
				}
			}
			return true
		})
	}

	// Liveness: a dereferencing function is covered if it locks, is a
	// constructor of the guarded owner, owns the mapping, or is reachable
	// only from covered functions.
	covered := map[*types.Func]bool{}
	inStore := map[*types.Func]bool{}
	for _, fi := range uc.storeFns {
		inStore[fi.obj] = true
		if uc.owners[fi.obj] ||
			hasOwnerLockCall(fi.pkg.TypesInfo, fi.decl.Body) ||
			isGuardedConstructor(fi.pkg.TypesInfo, fi.decl.Body) {
			covered[fi.obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range uc.storeFns {
			if covered[fi.obj] {
				continue
			}
			callers := uc.g.callers[fi.obj]
			if len(callers) == 0 {
				continue
			}
			all := true
			for _, c := range callers {
				if !inStore[c] || !covered[c] {
					all = false
					break
				}
			}
			if all {
				covered[fi.obj] = true
				changed = true
			}
		}
	}
	for _, d := range derefs {
		if covered[d.fi.obj] {
			continue
		}
		uc.pass.Reportf(d.fi.pkg, d.pos, "%s dereferences an mmap-derived view without the owner's reader lock held on every path to it", qualifiedName(d.fi.obj))
	}
}

func (uc *unsafeChecker) reportAssign(fi *funcInfo, as *ast.AssignStmt) {
	info := fi.pkg.TypesInfo
	check := func(lhs, rhs ast.Expr) {
		if !uc.tainted(fi, rhs) {
			return
		}
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(lhs)
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				if scope := v.Parent(); scope != nil && scope.Parent() == types.Universe {
					uc.pass.Reportf(fi.pkg, as.Pos(), "mmap-derived view stored in package-level %s outlives the region; findable long after Close", v.Name())
				}
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[lhs]
			if !ok || sel.Kind() != types.FieldVal {
				return
			}
			// Scalar fields copy the value out; only reference-carrying
			// fields pin the mapping.
			if fv, ok := sel.Obj().(*types.Var); !ok || !pointerLike(fv.Type()) {
				return
			}
			if hasMutexField(sel.Recv()) {
				return
			}
			uc.pass.Reportf(fi.pkg, as.Pos(), "mmap-derived view stored into %s, whose struct has no mutex guarding the region's lifetime", types.ExprString(lhs))
		}
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		for _, lhs := range as.Lhs {
			check(lhs, as.Rhs[0])
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i < len(as.Lhs) {
			check(as.Lhs[i], rhs)
		}
	}
}

func (uc *unsafeChecker) reportRetention(fi *funcInfo, call *ast.CallExpr) {
	info := fi.pkg.TypesInfo
	callee := calleeOf(info, call)
	if callee == nil || uc.g.byObj[callee] == nil {
		return
	}
	f := uc.facts[callee]
	if f == nil {
		return
	}
	for i, a := range call.Args {
		if !f.retainsParams[i] || !pointerLike(info.Types[a].Type) || !uc.tainted(fi, a) {
			continue
		}
		// Retention into a lifetime-guarded owner is the intended pattern.
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Results().Len() > 0 {
			if hasMutexField(sig.Results().At(0).Type()) {
				continue
			}
		}
		uc.pass.Reportf(fi.pkg, a.Pos(), "mmap-derived view retained by %s in a struct with no lifetime guard; it can outlive the mapping", qualifiedName(callee))
	}
}

func (uc *unsafeChecker) reportGoroutineCapture(fi *funcInfo, lit *ast.FuncLit) {
	info := fi.pkg.TypesInfo
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !uc.localVars(fi.obj)[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true
		}
		reported = true
		uc.pass.Reportf(fi.pkg, lit.Pos(), "goroutine captures mmap-derived view %s; the region may be unmapped while the goroutine still runs", obj.Name())
		return false
	})
}
