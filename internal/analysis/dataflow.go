package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// This file holds the helpers several rules share: the //drlint:hotpath
// annotation the compiler-witness gates start from, the "this value is the
// function's result" sinks maporder checks, and the per-function summaries
// (result aliases a parameter / retains a parameter) that let unsafelife
// judge call sites without inlining the callee. Everything here is
// deliberately one-hop and object-identity based — strong enough for the
// idioms this module actually uses, simple enough to stay predictable.

// hotpathDirective is the annotation marking a function as the root of a
// hot path: the compiler-witness gates check its closure.
const hotpathDirective = "//drlint:hotpath"

// hasHotpathDirective reports whether the function's doc comment group
// carries a //drlint:hotpath line, with or without arguments (the
// `inline=N` budget inlinegate consumes).
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	return hotpathComment(fd) != nil
}

// hotpathComment returns the //drlint:hotpath comment line of fd's doc
// group, or nil when the function is not annotated.
func hotpathComment(fd *ast.FuncDecl) *ast.Comment {
	if fd.Doc == nil {
		return nil
	}
	for _, c := range fd.Doc.List {
		t := strings.TrimSpace(c.Text)
		if t == hotpathDirective || strings.HasPrefix(t, hotpathDirective+" ") {
			return c
		}
	}
	return nil
}

// hotpathInlineBudget parses the optional arguments of a //drlint:hotpath
// annotation. The only recognized argument is `inline=N`: the number of
// statically-resolved module calls in this function's body the author
// accepts staying non-inlined (measured, deliberate costs like a pooled
// collector's Offer). Absent annotation or absent argument means budget 0.
// The comment is returned for error positioning; a non-nil error describes
// a malformed argument list.
func hotpathInlineBudget(fd *ast.FuncDecl) (int, *ast.Comment, error) {
	c := hotpathComment(fd)
	if c == nil {
		return 0, nil, nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), hotpathDirective))
	if rest == "" {
		return 0, c, nil
	}
	budget := 0
	for _, tok := range strings.Fields(rest) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k != "inline" {
			return 0, c, fmt.Errorf("unknown argument %q (grammar: //drlint:hotpath [inline=N])", tok)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, c, fmt.Errorf("inline budget %q is not a non-negative integer", v)
		}
		budget = n
	}
	return budget, c, nil
}

// sinkVars returns the local objects whose value reaches a return statement
// or a channel send in body: the values whose order a caller observes
// (maporder flags map-ordered slices that reach one unsorted).
func sinkVars(info *types.Info, body ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					if _, isVar := obj.(*types.Var); isVar {
						out[obj] = true
					}
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				mark(r)
			}
		case *ast.SendStmt:
			mark(st.Value)
		}
		return true
	})
	return out
}

// funcFacts is the one-hop summary of a module function the call-site rules
// consume.
type funcFacts struct {
	// aliasParams: the result may alias the memory of parameter i
	// (receiver encoded as -1). Used by unsafelife to propagate mmap taint
	// through zero-copy cast helpers like castF64 or Dense.RawRow.
	aliasParams map[int]bool
	// retainsParams: parameter i is stored into a field of a composite or
	// struct the function builds or mutates — the value outlives the call.
	retainsParams map[int]bool
}

// computeFuncFacts summarizes every function in the call graph.
func computeFuncFacts(g *callGraph) map[*types.Func]*funcFacts {
	out := map[*types.Func]*funcFacts{}
	for _, fi := range g.funcs {
		out[fi.obj] = summarize(fi)
	}
	return out
}

// paramIndexOf maps an object to its parameter index in fi's signature
// (receiver -1), or (0, false) if it is not a parameter.
func paramIndexOf(fi *funcInfo, obj types.Object) (int, bool) {
	sig, ok := fi.obj.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	if recv := sig.Recv(); recv != nil && obj == recv {
		return -1, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if obj == sig.Params().At(i) {
			return i, true
		}
	}
	return 0, false
}

func summarize(fi *funcInfo) *funcFacts {
	facts := &funcFacts{aliasParams: map[int]bool{}, retainsParams: map[int]bool{}}
	if fi.decl.Body == nil {
		return facts
	}
	info := fi.pkg.TypesInfo

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested closures have their own returns
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if isAllocExpr(r) {
				continue // memory allocated inside the call aliases no parameter
			}
			// Any parameter referenced in the returned expression (outside
			// len/cap) may be aliased by the result: slicing, field
			// selection, unsafe casts all preserve the backing memory.
			markAliasedParams(fi, r, facts)
		}
		return true
	})

	// Retention: a parameter stored into a composite-literal field or onto
	// a selector (x.f = param) outlives the call.
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if id, ok := ast.Unparen(v).(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						if i, isParam := paramIndexOf(fi, obj); isParam {
							facts.retainsParams[i] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break
				}
				if _, ok := lhs.(*ast.SelectorExpr); !ok {
					continue
				}
				if id, ok := ast.Unparen(st.Rhs[i]).(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						if pi, isParam := paramIndexOf(fi, obj); isParam {
							facts.retainsParams[pi] = true
						}
					}
				}
			}
		}
		return true
	})
	return facts
}

// markAliasedParams records every parameter referenced inside expr (skipping
// len/cap arguments, which read only the header) as potentially aliased by
// the function result.
func markAliasedParams(fi *funcInfo, expr ast.Expr, facts *funcFacts) {
	info := fi.pkg.TypesInfo
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				if i, isParam := paramIndexOf(fi, obj); isParam {
					facts.aliasParams[i] = true
				}
			}
		}
		return true
	})
}

// isAllocExpr reports whether evaluating e performs a heap allocation by
// construction: &T{...}, slice/map composite literals, make, new, append,
// and string<->byte/rune conversions. Conservative on purpose — value
// struct literals and [N]T arrays are not allocations.
func isAllocExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
			return true
		}
	case *ast.CompositeLit:
		switch e.Type.(type) {
		case *ast.ArrayType:
			// Slice literals allocate; fixed arrays ([N]T{...}) do not.
			at := e.Type.(*ast.ArrayType)
			return at.Len == nil
		case *ast.MapType:
			return true
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new", "append":
				return true
			}
		}
	}
	return false
}
