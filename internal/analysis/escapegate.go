package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EscapeGate proves hot paths allocation-free with the compiler's own
// escape analysis instead of syntactic pattern matching: any expression the
// optimizer reports as escaping to the heap inside a //drlint:hotpath
// closure is flagged, unless the exemption walk recognizes it as an
// amortized-to-zero idiom (pool-miss refill, cap-guarded growth, result
// materialization, panic path). It is the static half of the hot paths'
// allocation gate; the dynamic half is the testing.AllocsPerRun pin on each
// annotated root, which also sees what escape analysis cannot — an append
// that outgrows its backing array.
//
// Escape facts the compiler attributes to an ordinary call's left
// parenthesis are the inlined copy of a callee's allocation and are skipped
// here: the callee is in the closure and its own compile carries the same
// fact at the real source position, so every allocation is judged exactly
// once, in the function that wrote it.
//
// When the witness build is unavailable — unknown toolchain, unrecognized
// diagnostic format, sandbox without a go tool — the rule reports nothing
// and cmd/drlint surfaces the degradation via WitnessNotice.
var EscapeGate = &Analyzer{
	Name: "escapegate",
	Doc: "no compiler-witnessed heap escape may survive in a //drlint:hotpath " +
		"closure; pool refills, cap-guarded growth, and result materialization " +
		"are exempt",
	Family:          "compiler-witness",
	NeedsAnnotation: true,
	NeedsTypes:      true,
	RunModule:       runEscapeGate,
}

func runEscapeGate(pass *ModulePass) {
	wc := newWitnessContext(pass)
	if wc == nil {
		return
	}
	for _, fi := range wc.graph.funcs {
		root, ok := wc.hot[fi.obj]
		if !ok || fi.decl.Body == nil {
			continue
		}
		checkEscapes(pass, wc, fi, root)
	}
}

func checkEscapes(pass *ModulePass, wc *witnessContext, fi *funcInfo, root string) {
	info := fi.pkg.TypesInfo
	fset := fi.pkg.Fset
	ex := newAllocExempt(info, fi.decl.Body)
	// Two nodes can share a position (a FuncLit and its FuncType, a
	// KeyValueExpr and its key); each fact is reported once.
	reported := map[string]bool{}

	var stack []ast.Node
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok {
			// "moved to heap: x" facts key at the variable's declaration
			// (alongside an "x escapes to heap" line for the same event);
			// match the name so an unrelated identifier sharing a position
			// line cannot alias the fact.
			key := witnessKey(wc.root, fset.Position(id.Pos()))
			if name, ok := wc.report.moved[key]; ok && name == id.Name {
				if !ex.exempted(stack) {
					pass.Reportf(fi.pkg, id.Pos(), "%s: local %s is moved to the heap (compiler escape analysis); avoid capturing its address or justify with //drlint:ignore escapegate",
						hotWhere(fi, root), name)
				}
				return true
			}
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		pos := compilerPos(info, e)
		if !pos.IsValid() {
			return true
		}
		key := witnessKey(wc.root, fset.Position(pos))
		if what, ok := wc.report.escapes[key]; ok && !reported[key] && !ex.exempted(stack) {
			reported[key] = true
			pass.Reportf(fi.pkg, e.Pos(), "%s: %s escapes to heap (compiler escape analysis); hoist it, pool it, or justify with //drlint:ignore escapegate",
				hotWhere(fi, root), what)
		}
		return true
	})
}

// compilerPos returns the position the compiler's diagnostics give an
// expression, which is where go/ast says it starts only for identifiers,
// literals, unary, star and parenthesized expressions: an allocating
// make/new/conversion is keyed at its left parenthesis, a composite literal
// at its left brace (&T{...} at the &), a binary expression at its
// operator, an index or slice at the bracket, a selector or type assertion
// at the dot. A value boxed into an interface — an int passed to ...any —
// is keyed at the value's own expression, whatever its kind. An ordinary
// call has no fact of its own (see EscapeGate): NoPos.
func compilerPos(info *types.Info, e ast.Expr) token.Pos {
	switch e := e.(type) {
	case *ast.CallExpr:
		tv := info.Types[e.Fun]
		if tv.IsBuiltin() || tv.IsType() {
			return e.Lparen
		}
		return token.NoPos
	case *ast.CompositeLit:
		return e.Lbrace
	case *ast.BinaryExpr:
		return e.OpPos
	case *ast.IndexExpr:
		return e.Lbrack
	case *ast.SliceExpr:
		return e.Lbrack
	case *ast.SelectorExpr:
		return e.X.End()
	case *ast.TypeAssertExpr:
		return e.X.End()
	}
	return e.Pos()
}
