package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context propagation in the serving layer:
// a request's deadline only means anything if every stage of the request
// sees the same context. Two shapes break that chain:
//
//  1. context.Background() / context.TODO() in non-main, non-test code —
//     a fresh root context silently discards the caller's deadline and
//     cancellation, so ErrDeadline accounting stops matching what clients
//     asked for. Roots belong in func main (and tests), nowhere else.
//  2. an exported function that accepts a context.Context but hands a
//     different, underived context to a context-accepting call it makes —
//     the compiler is satisfied, the deadline is dropped.
//
// A context derived from the incoming one (context.WithTimeout(ctx, ...),
// context.WithCancel(ctx), or an alias) counts as propagation.
var CtxFlow = &Analyzer{
	Name:       "ctxflow",
	Family:     "type-aware",
	Doc:        "exported context-accepting functions in internal/serve must propagate their context; context roots only in main and tests",
	NeedsTypes: true,
	Run:        runCtxFlow,
}

// ctxFlowPackages are the import-path suffixes the rule applies to.
var ctxFlowPackages = []string{"internal/serve"}

func runCtxFlow(pass *Pass) {
	applies := false
	for _, suffix := range ctxFlowPackages {
		if strings.HasSuffix(pass.Pkg.Path, suffix) {
			applies = true
		}
	}
	if !applies {
		return
	}
	info := pass.Pkg.TypesInfo
	for _, f := range pass.SourceFiles() {
		pkgIsMain := f.AST.Name.Name == "main"
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			isMain := pkgIsMain && fn.Recv == nil && fn.Name.Name == "main"
			if !isMain {
				reportContextRoots(pass, info, fn)
			}
			if fn.Name.IsExported() {
				checkCtxPropagation(pass, info, fn)
			}
		}
	}
}

// reportContextRoots flags context.Background()/TODO() calls anywhere in
// fn, including nested function literals.
func reportContextRoots(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := contextCallName(info, call); name == "Background" || name == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s() outside main/tests discards the caller's deadline and cancellation; accept and propagate a context.Context instead",
				name)
		}
		return true
	})
}

// checkCtxPropagation verifies that an exported function taking a
// context.Context passes that context (or a derivative) to every
// context-accepting call in its body.
func checkCtxPropagation(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	good := map[types.Object]bool{}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
				good[obj] = true
			}
		}
	}
	if len(good) == 0 {
		return
	}

	// Grow the good set: aliases and derivations (ctx2, cancel :=
	// context.WithTimeout(ctx, d)) of a good context are good. Iterate to a
	// fixpoint so chains resolve regardless of order.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) == 0 {
				return true
			}
			derived := false
			if len(as.Rhs) == 1 {
				rhs := as.Rhs[0]
				if id, ok := rhs.(*ast.Ident); ok && good[identObj(info, id)] {
					derived = true
				}
				if call, ok := rhs.(*ast.CallExpr); ok && isGoodDerivation(info, call, good) {
					derived = true
				}
			}
			if !derived {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				obj := identObj(info, id)
				if obj != nil && !good[obj] && isContextType(obj.Type()) {
					good[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			t := info.TypeOf(arg)
			if t == nil || !isContextType(t) {
				continue
			}
			if isGoodCtxArg(info, arg, good) {
				continue
			}
			if name := contextCallName(info, arg.(ast.Expr)); name == "Background" || name == "TODO" {
				// Already reported as a context root.
				continue
			}
			pass.Reportf(arg.Pos(),
				"call passes a context that is not derived from %s's context parameter; the caller's deadline is dropped",
				fn.Name.Name)
		}
		return true
	})
}

// isGoodCtxArg reports whether arg is a good context: the parameter, an
// alias/derivative, or an inline derivation from one.
func isGoodCtxArg(info *types.Info, arg ast.Expr, good map[types.Object]bool) bool {
	switch x := arg.(type) {
	case *ast.Ident:
		return good[identObj(info, x)]
	case *ast.CallExpr:
		return isGoodDerivation(info, x, good)
	case *ast.ParenExpr:
		return isGoodCtxArg(info, x.X, good)
	}
	return false
}

// isGoodDerivation reports whether call is context.WithX(good, ...).
func isGoodDerivation(info *types.Info, call *ast.CallExpr, good map[types.Object]bool) bool {
	switch contextCallName(info, call) {
	case "WithCancel", "WithTimeout", "WithDeadline", "WithValue", "WithCancelCause", "WithTimeoutCause", "WithDeadlineCause", "WithoutCancel":
	default:
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	return isGoodCtxArg(info, call.Args[0], good)
}

// contextCallName returns the function name when e is a call into the
// context package ("Background", "WithTimeout", ...), else "".
func contextCallName(info *types.Info, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
