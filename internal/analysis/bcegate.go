package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// BceGate verifies that the asm-adjacent scan and kernel code — the
// quantized sweep in internal/store and the kernel dispatchers in
// internal/linalg — runs without bounds checks the SSA backend had to
// retain. These loops are sized to run at memory bandwidth; a retained
// IsInBounds/IsSliceInBounds in them is a per-row branch the hand-written
// assembly next door does not pay. The rule joins the
// -d=ssa/check_bce/debug=1 witness against the //drlint:hotpath closure,
// restricted to those two packages (elsewhere a bounds check is the cost
// of safety, not a kernel regression).
//
// Only checks inside for/range loop bodies gate: setup indexing before the
// loop runs once per call and is the price of a safe slice header, not a
// per-row tax. Facts the compiler attributes to a module call site (the
// inlined copy of a callee's check) are skipped: the callee is judged at
// its own declaration. Checks inside panic arguments are cold and exempt.
// Remaining checks either get restructured indexing (slice re-slicing like
// `c = c[:n]` that teaches the prover the loop bound) or a justified
// //drlint:ignore explaining why the check is irreducible and amortized.
var BceGate = &Analyzer{
	Name: "bcegate",
	Doc: "loops in internal/linalg and internal/store's scanBlock family that are " +
		"in a //drlint:hotpath closure must keep zero compiler-retained bounds checks",
	Family:          "compiler-witness",
	NeedsAnnotation: true,
	NeedsTypes:      true,
	RunModule:       runBceGate,
}

// bceScope returns whether fi is asm-adjacent kernel code: anything in
// internal/linalg, and internal/store's scanBlock family plus the per-row
// leaf helpers its loops call. Drivers like scanParallel or SearchBatch
// run per segment or per query — their indexing is the caller contract,
// not a kernel regression.
func bceScope(fi *funcInfo) bool {
	switch fi.pkg.Path {
	case modulePath + "/internal/linalg":
		return true
	case modulePath + "/internal/store":
		name := fi.decl.Name.Name
		switch name {
		case "combine", "rowDotQ", "scoreAt":
			return true
		}
		return strings.HasPrefix(name, "scanBlock")
	}
	return false
}

func runBceGate(pass *ModulePass) {
	wc := newWitnessContext(pass)
	if wc == nil {
		return
	}
	for _, fi := range wc.graph.funcs {
		root, ok := wc.hot[fi.obj]
		if !ok || fi.decl.Body == nil || !bceScope(fi) {
			continue
		}
		checkBounds(pass, wc, fi, root)
	}
}

func checkBounds(pass *ModulePass, wc *witnessContext, fi *funcInfo, root string) {
	fset := fi.pkg.Fset
	tf := fset.File(fi.decl.Pos())
	if tf == nil {
		return
	}
	start := fset.Position(fi.decl.Pos())
	end := fset.Position(fi.decl.End())
	fname := witnessFileOf(witnessKey(wc.root, start))

	// Call sites whose inlined-callee facts must not be double-reported.
	callSites := map[string]bool{}
	info := fi.pkg.TypesInfo
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeOf(info, call); callee != nil && wc.graph.byObj[callee] != nil {
				callSites[witnessKey(wc.root, fset.Position(call.Lparen))] = true
			}
		}
		return true
	})

	for key, kind := range wc.report.boundsChecks {
		file, line, col, ok := splitWitnessKey(key)
		if !ok || file != fname || line < start.Line || line > end.Line {
			continue
		}
		if callSites[key] {
			continue
		}
		if line > tf.LineCount() {
			continue
		}
		pos := tf.LineStart(line) + token.Pos(col-1)
		if pos < fi.decl.Pos() || pos >= fi.decl.End() {
			continue
		}
		if bceColdPath(info, fi.decl, pos) || !bceInLoop(fi.decl, pos) {
			continue
		}
		pass.Reportf(fi.pkg, pos, "%s: compiler retained a bounds check (%s) in an asm-adjacent kernel; restructure the indexing for BCE or justify with //drlint:ignore bcegate",
			hotWhere(fi, root), kind)
	}
}

// bceColdPath reports whether pos sits inside a panic argument — the one
// context where a retained check costs nothing because the path is already
// crashing.
func bceColdPath(info *types.Info, decl *ast.FuncDecl, pos token.Pos) bool {
	cold := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false // prune subtrees that cannot contain pos
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					cold = true
				}
			}
		}
		return true
	})
	return cold
}

// bceInLoop reports whether pos sits inside the body of a for or range
// statement — the only place a retained check is a per-row cost.
func bceInLoop(decl *ast.FuncDecl, pos token.Pos) bool {
	inLoop := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			if pos >= n.Body.Pos() && pos < n.Body.End() {
				inLoop = true
			}
		case *ast.RangeStmt:
			if pos >= n.Body.Pos() && pos < n.Body.End() {
				inLoop = true
			}
		}
		return true
	})
	return inLoop
}

// witnessFileOf strips the ":line:col" suffix from a witness key.
func witnessFileOf(key string) string {
	s := key
	for i := 0; i < 2; i++ {
		j := strings.LastIndexByte(s, ':')
		if j < 0 {
			return key
		}
		s = s[:j]
	}
	return s
}

// splitWitnessKey parses "file:line:col" back into its parts.
func splitWitnessKey(key string) (file string, line, col int, ok bool) {
	j := strings.LastIndexByte(key, ':')
	if j < 0 {
		return "", 0, 0, false
	}
	c, err := strconv.Atoi(key[j+1:])
	if err != nil {
		return "", 0, 0, false
	}
	s := key[:j]
	j = strings.LastIndexByte(s, ':')
	if j < 0 {
		return "", 0, 0, false
	}
	l, err := strconv.Atoi(s[j+1:])
	if err != nil {
		return "", 0, 0, false
	}
	return s[:j], l, c, true
}
