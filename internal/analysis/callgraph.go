package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file builds the module-local static call graph unsafelife and the
// compiler-witness gates run over. Only statically resolvable edges are
// recorded: calls to package-level functions and to methods with a concrete
// receiver type, resolved through go/types object identity. Calls through
// interface values, function-typed variables, or method values are NOT
// followed — a documented gap shared with every context-insensitive static
// call graph; the rules that consume this graph say so in their docs.

// funcInfo is one function or method declared in a typed, non-test file.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// callGraph indexes every module function and its statically resolvable
// callees (module-internal only), in deterministic source order.
type callGraph struct {
	// funcs lists every declared function in package order, then file
	// order, then declaration order — the iteration order every consumer
	// uses, so findings come out deterministically.
	funcs []*funcInfo
	byObj map[*types.Func]*funcInfo
	// callees maps a function to the module functions it calls (deduped,
	// in first-call order). Calls inside nested FuncLits are attributed to
	// the enclosing declared function: a closure runs with its creator's
	// dynamic context, which is the approximation the hot-path and
	// lock-domination analyses want.
	callees map[*types.Func][]*types.Func
	// callers is the reverse adjacency of callees.
	callers map[*types.Func][]*types.Func
}

// buildCallGraph indexes the typed packages of the pass. Packages without
// type information (test-only packages) contribute nothing.
func buildCallGraph(pass *ModulePass) *callGraph {
	g := &callGraph{
		byObj:   map[*types.Func]*funcInfo{},
		callees: map[*types.Func][]*types.Func{},
		callers: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range pass.Pkgs {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, f := range pass.SourceFiles(pkg) {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &funcInfo{obj: obj, decl: fd, pkg: pkg}
				g.funcs = append(g.funcs, fi)
				g.byObj[obj] = fi
			}
		}
	}
	for _, fi := range g.funcs {
		if fi.decl.Body == nil {
			continue
		}
		seen := map[*types.Func]bool{}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(fi.pkg.TypesInfo, call)
			if callee == nil || g.byObj[callee] == nil || seen[callee] {
				return true
			}
			seen[callee] = true
			g.callees[fi.obj] = append(g.callees[fi.obj], callee)
			g.callers[callee] = append(g.callers[callee], fi.obj)
			return true
		})
	}
	return g
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes, or nil for dynamic calls (interface methods, func-typed values),
// builtins, and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			f, _ := sel.Obj().(*types.Func)
			if f != nil && !isInterfaceMethod(f) {
				return f
			}
			return nil
		}
		// Qualified package function: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isInterfaceMethod reports whether f is declared on an interface type —
// a dynamic dispatch site the static graph cannot follow.
func isInterfaceMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// reach returns every function reachable from the given roots along callee
// edges, mapped to the (qualified) name of the root that first reached it.
// Roots map to themselves, so annotated functions are in the result.
func (g *callGraph) reach(roots []*types.Func) map[*types.Func]string {
	out := map[*types.Func]string{}
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := out[r]; ok {
			continue
		}
		out[r] = qualifiedName(r)
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, c := range g.callees[f] {
			if _, ok := out[c]; ok {
				continue
			}
			out[c] = out[f]
			queue = append(queue, c)
		}
	}
	return out
}

// qualifiedName renders a function as pkg.Func or pkg.(*Recv).Method for
// diagnostics, trimming the module path prefix.
func qualifiedName(f *types.Func) string {
	name := f.FullName()
	name = strings.ReplaceAll(name, modulePath+"/", "")
	return name
}
