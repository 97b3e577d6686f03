package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedProv closes the provenance gap globalrand leaves open. globalrand
// bans the global math/rand state and hardcoded literal seeds in library
// code, but it cannot see where an injected seed came from: a seed built
// from time.Now() or os.Getpid() passes globalrand and still makes every
// run unreproducible. SeedProv traces each seed expression — arguments to
// math/rand source constructors, arguments bound to module parameters
// named *seed*, and values assigned to *Seed* fields — back through local
// assignments, conversions, arithmetic, and module derivation helpers
// (splitmix chains such as lsh's deriveSeed) to its leaves. Every leaf must be a
// fixed literal or constant, a struct/config field, a flag, a package-level
// variable, or a parameter of the enclosing function (whose own callers are
// then judged at their call sites). Leaves that reach wall clocks, process
// state, channels, or unvetted external calls are flagged.
var SeedProv = &Analyzer{
	Name: "seedprov",
	Doc: "every rand.Source/splitmix seed must trace to a config field, flag, " +
		"or fixed literal; clocks and process state make runs unreproducible",
	Family:     "determinism",
	NeedsTypes: true,
	Run:        runSeedProv,
}

// seedExternalAllowlist are non-module packages whose pure functions may
// appear on a seed derivation chain (parsing and bit mixing, no ambient
// state).
var seedExternalAllowlist = map[string]bool{
	"flag":      true,
	"strconv":   true,
	"math/bits": true,
	"hash/fnv":  true,
}

func runSeedProv(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSeeds(pass, info, fd)
		}
	}
}

func checkSeeds(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range seedArgs(info, n) {
				reportBadSeed(pass, info, fd, arg)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok && isSeedName(sel.Sel.Name) {
					reportBadSeed(pass, info, fd, n.Rhs[i])
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok && isSeedName(id.Name) {
				if _, isField := info.Uses[id].(*types.Var); isField || info.Uses[id] == nil {
					reportBadSeed(pass, info, fd, n.Value)
				}
			}
		}
		return true
	})
}

// isSeedName matches identifiers that carry seed semantics by naming
// convention: Seed, seed, BaseSeed, seedLo, ...
func isSeedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// seedArgs returns the arguments of call that are seeds: every argument of
// a math/rand source constructor, and each argument bound to a module
// parameter whose name matches the seed convention.
func seedArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	callee := calleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return nil
	}
	pkgPath := callee.Pkg().Path()
	if pkgPath == "math/rand" || pkgPath == "math/rand/v2" {
		switch callee.Name() {
		case "NewSource", "NewPCG", "NewChaCha8", "Seed":
			return call.Args
		}
		return nil
	}
	if !strings.HasPrefix(pkgPath, modulePath) {
		return nil
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []ast.Expr
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi < sig.Params().Len() && isSeedName(sig.Params().At(pi).Name()) {
			out = append(out, arg)
		}
	}
	return out
}

// reportBadSeed traces expr's provenance and reports the first leaf that
// is not a blessed origin.
func reportBadSeed(pass *Pass, info *types.Info, fd *ast.FuncDecl, expr ast.Expr) {
	if bad, desc := badSeedLeaf(info, fd, expr, map[types.Object]bool{}); bad != nil {
		pass.Reportf(bad.Pos(), "seed derives from %s, not a config field, flag, or fixed literal; thread the seed through configuration so runs are reproducible", desc)
	}
}

// badSeedLeaf walks expr's dataflow leaves. It returns a non-nil
// expression and description for the first unacceptable origin, or nil
// when every leaf is blessed. visiting breaks local-assignment cycles.
func badSeedLeaf(info *types.Info, fd *ast.FuncDecl, expr ast.Expr, visiting map[types.Object]bool) (ast.Expr, string) {
	expr = ast.Unparen(expr)
	if tv, ok := info.Types[expr]; ok && tv.Value != nil {
		return nil, "" // compile-time constant, however it is spelled
	}
	switch e := expr.(type) {
	case *ast.BasicLit:
		return nil, ""
	case *ast.Ident:
		return badSeedIdent(info, fd, e, visiting)
	case *ast.SelectorExpr:
		// A field selection is config provenance; a package-qualified
		// name resolves like a plain identifier.
		if sel, ok := info.Selections[e]; ok {
			if _, isVar := sel.Obj().(*types.Var); isVar {
				return nil, ""
			}
			return e, "method value " + sel.Obj().Name()
		}
		return badSeedIdent(info, fd, e.Sel, visiting)
	case *ast.CallExpr:
		return badSeedCall(info, fd, e, visiting)
	case *ast.BinaryExpr:
		if bad, desc := badSeedLeaf(info, fd, e.X, visiting); bad != nil {
			return bad, desc
		}
		return badSeedLeaf(info, fd, e.Y, visiting)
	case *ast.UnaryExpr:
		if e.Op.String() == "<-" {
			return e, "a channel receive"
		}
		return badSeedLeaf(info, fd, e.X, visiting)
	case *ast.StarExpr:
		return badSeedLeaf(info, fd, e.X, visiting)
	case *ast.IndexExpr:
		if bad, desc := badSeedLeaf(info, fd, e.X, visiting); bad != nil {
			return bad, desc
		}
		return badSeedLeaf(info, fd, e.Index, visiting)
	}
	return expr, "an untraceable expression"
}

// badSeedIdent judges one identifier leaf: constants, fields, parameters,
// and package-level variables are blessed; locals are traced through their
// assignments.
func badSeedIdent(info *types.Info, fd *ast.FuncDecl, id *ast.Ident, visiting map[types.Object]bool) (ast.Expr, string) {
	obj := info.ObjectOf(id)
	switch obj := obj.(type) {
	case nil:
		return id, "an unresolved identifier"
	case *types.Const:
		return nil, ""
	case *types.Var:
		if obj.IsField() {
			return nil, "" // config/struct field
		}
		if scope := obj.Parent(); scope != nil && scope.Parent() == types.Universe {
			return nil, "" // package-level variable (flag targets live here)
		}
		if isParamOf(info, fd, obj) {
			return nil, "" // caller's responsibility, judged at its call site
		}
		if visiting[obj] {
			return nil, ""
		}
		visiting[obj] = true
		defer delete(visiting, obj)
		if rhs := localAssignment(info, fd, obj); rhs != nil {
			return badSeedLeaf(info, fd, rhs, visiting)
		}
		if rs, isKey := rangeBinding(info, fd, obj); rs != nil {
			return badSeedRange(info, fd, rs, isKey, id, visiting)
		}
		return id, "local " + obj.Name() + " with no traceable assignment"
	}
	return id, "identifier " + id.Name
}

// badSeedCall judges a call on the derivation chain: conversions recurse,
// module helpers and allowlisted pure packages recurse into arguments,
// anything else (clocks, process state, crypto readers) is the leak.
func badSeedCall(info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr, visiting map[types.Object]bool) (ast.Expr, string) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return badSeedLeaf(info, fd, call.Args[0], visiting) // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return nil, "" // len/cap/min/max of something
		}
	}
	callee := calleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return call, "a dynamic call"
	}
	pkgPath := callee.Pkg().Path()
	if strings.HasPrefix(pkgPath, modulePath) || seedExternalAllowlist[pkgPath] {
		for _, arg := range call.Args {
			if bad, desc := badSeedLeaf(info, fd, arg, visiting); bad != nil {
				return bad, desc
			}
		}
		return nil, ""
	}
	return call, pkgPath + "." + callee.Name() + "()"
}

// isParamOf reports whether obj is a parameter, receiver, or named result
// of fd.
func isParamOf(info *types.Info, fd *ast.FuncDecl, obj *types.Var) bool {
	def, _ := info.Defs[fd.Name].(*types.Func)
	if def == nil {
		return false
	}
	sig, ok := def.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil && obj == recv {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if obj == sig.Params().At(i) {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if obj == sig.Results().At(i) {
			return true
		}
	}
	// Parameters of a closure literal inside fd also count: the value bound
	// there comes from the closure's caller, which is judged in turn.
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return !found
		}
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				if info.ObjectOf(name) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// rangeBinding finds the range statement in fd whose key or value binds
// obj, reporting which side it is.
func rangeBinding(info *types.Info, fd *ast.FuncDecl, obj *types.Var) (*ast.RangeStmt, bool) {
	var out *ast.RangeStmt
	isKey := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return out == nil
		}
		if id, ok := rs.Key.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			out, isKey = rs, true
		}
		if id, ok := rs.Value.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			out, isKey = rs, false
		}
		return out == nil
	})
	return out, isKey
}

// badSeedRange judges a range-bound leaf. A key over anything ordered
// (slice, array, integer) is a deterministic index and passes; the two
// genuinely nondeterministic sources — map iteration and channel receives —
// are flagged; a value leaf inherits the container's provenance.
func badSeedRange(info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt, isKey bool, id *ast.Ident, visiting map[types.Object]bool) (ast.Expr, string) {
	t := info.TypeOf(rs.X)
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			return id, "map iteration order"
		case *types.Chan:
			return id, "a channel receive"
		}
	}
	if isKey {
		return nil, ""
	}
	return badSeedLeaf(info, fd, rs.X, visiting)
}

// localAssignment finds the last assignment or declaration of obj inside
// fd's body and returns its right-hand side.
func localAssignment(info *types.Info, fd *ast.FuncDecl, obj *types.Var) ast.Expr {
	var rhs ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, l := range st.Lhs {
				if id, ok := l.(*ast.Ident); ok && info.ObjectOf(id) == obj {
					rhs = st.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if info.ObjectOf(name) == obj && i < len(st.Values) {
					rhs = st.Values[i]
				}
			}
		}
		return true
	})
	return rhs
}
