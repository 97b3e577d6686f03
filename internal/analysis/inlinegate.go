package analysis

import (
	"go/ast"
	"go/types"
)

// InlineGate verifies that calls inside //drlint:hotpath functions were
// actually inlined by the compiler. A non-inlined call in an inner loop
// pays frame setup and kills cross-call optimization, which is exactly the
// cost the hotpath annotation promises away — but some calls are too big
// to inline by design (a pooled Collector's Offer sits at cost ~151), so
// the annotation takes an explicit budget:
//
//	//drlint:hotpath inline=N
//
// meaning the author has measured and accepts up to N statically-resolved
// module calls in this function staying non-inlined. With no budget (plain
// //drlint:hotpath) every such call must inline. When the count exceeds the
// budget, every non-inlined site is reported with the compiler's own
// cannot-inline reason for its callee.
//
// Unlike escapegate, the gate covers only functions carrying the annotation
// directly, not their transitive callees: the budget is an author-measured
// property of one function's inner loop, and an un-annotated callee has no
// doc comment to carry `inline=N`. Callees that matter are annotated
// themselves.
//
// Out of scope by construction: calls through interfaces or func values
// (no static callee), assembly-backed declarations (nothing to inline),
// go/defer statements (never inlined; goroutinehygiene governs the former),
// panic arguments (cold path), and self-recursion.
var InlineGate = &Analyzer{
	Name: "inlinegate",
	Doc: "statically-resolved module calls in a //drlint:hotpath function must " +
		"be inlined by the compiler, up to the annotation's inline=N budget",
	Family:          "compiler-witness",
	NeedsAnnotation: true,
	NeedsTypes:      true,
	RunModule:       runInlineGate,
}

func runInlineGate(pass *ModulePass) {
	wc := newWitnessContext(pass)
	if wc == nil {
		return
	}
	for _, fi := range wc.graph.funcs {
		root, ok := wc.hot[fi.obj]
		if !ok || fi.decl.Body == nil || hotpathComment(fi.decl) == nil {
			continue
		}
		budget, bc, err := hotpathInlineBudget(fi.decl)
		if err != nil {
			pass.Reportf(fi.pkg, bc.Pos(), "malformed //drlint:hotpath annotation: %v", err)
			continue
		}
		sites := nonInlinedCalls(wc, fi)
		if len(sites) <= budget {
			continue
		}
		for _, s := range sites {
			pass.Reportf(fi.pkg, s.call.Lparen, "%s: call to %s is not inlined (%s); %d non-inlined call(s) exceed inline budget %d — shrink the callee or raise //drlint:hotpath inline=N",
				hotWhere(fi, root), qualifiedName(s.callee), s.reason, len(sites), budget)
		}
	}
}

type inlineSite struct {
	call   *ast.CallExpr
	callee *types.Func
	reason string
}

// nonInlinedCalls collects the statically-resolved module calls in fi's
// body that carry no "inlining call to" witness at their call site.
func nonInlinedCalls(wc *witnessContext, fi *funcInfo) []inlineSite {
	info := fi.pkg.TypesInfo
	fset := fi.pkg.Fset
	var sites []inlineSite
	var stack []ast.Node
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || inlineExempt(info, stack) {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || callee == fi.obj {
			return true
		}
		cfi := wc.graph.byObj[callee]
		if cfi == nil || cfi.decl.Body == nil {
			return true // external, or an assembly stub
		}
		if wc.report.inlinedCalls[witnessKey(wc.root, fset.Position(call.Lparen))] {
			return true
		}
		// The compiler keys cannot-inline facts at the token after "func":
		// the name for plain functions, the receiver's paren for methods.
		reason := wc.report.cannotInline[witnessKey(wc.root, cfi.pkg.Fset.Position(cfi.decl.Name.Pos()))]
		if reason == "" && cfi.decl.Recv != nil {
			reason = wc.report.cannotInline[witnessKey(wc.root, cfi.pkg.Fset.Position(cfi.decl.Recv.Pos()))]
		}
		if reason == "" {
			reason = "no inlining witness at this call site"
		}
		sites = append(sites, inlineSite{call: call, callee: callee, reason: reason})
		return true
	})
	return sites
}

// inlineExempt reports whether the call at the top of stack sits in a
// context where inlining is impossible or irrelevant: the call of a go or
// defer statement, or a panic argument (cold by definition).
func inlineExempt(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(a.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}
