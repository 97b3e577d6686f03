package analysis

import (
	"go/ast"
	"go/token"
)

// GoroutineHygiene checks the fan-out shape used by the GEMM panels,
// knn's parallelQueries, and the LSH batch build: a `go` statement inside a
// loop spawns an unbounded number of goroutines, so the spawning function
// must provably wait for them — either a sync.WaitGroup with Add paired
// with Done/Wait, or a result-channel handshake (the goroutine sends, the
// function receives). A loop-spawned goroutine with neither is a leak: the
// function returns while workers still mutate shared buffers, which is
// exactly the data race the batch engine's deterministic reductions cannot
// tolerate.
var GoroutineHygiene = &Analyzer{
	Name:   "goroutinehygiene",
	Family: "syntactic",
	Doc:    "go statements inside loops must be joined via WaitGroup Add/Done-Wait or a result-channel handshake in the same function",
	Run:    runGoroutineHygiene,
}

func runGoroutineHygiene(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGoroutines(pass, fn)
		}
	}
}

// checkGoroutines finds loop-nested go statements in fn (including those in
// nested function literals, attributed to the literal when the loop is
// inside it) and verifies the enclosing function joins its workers.
func checkGoroutines(pass *Pass, fn *ast.FuncDecl) {
	// Walk with an explicit stack of "function frames"; each frame tracks
	// loop depth so a `go` inside a FuncLit's loop is judged against the
	// FuncLit, not the outer function.
	type frame struct {
		body  *ast.BlockStmt
		loops int
	}
	var stack []*frame
	push := func(body *ast.BlockStmt) { stack = append(stack, &frame{body: body}) }
	push(fn.Body)

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch node := n.(type) {
		case *ast.FuncLit:
			push(node.Body)
			walk(node.Body)
			stack = stack[:len(stack)-1]
			return
		case *ast.ForStmt, *ast.RangeStmt:
			top := stack[len(stack)-1]
			top.loops++
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				walkChild(m, &walk)
				return false
			})
			top.loops--
			return
		case *ast.GoStmt:
			top := stack[len(stack)-1]
			if top.loops > 0 && !joinsWorkers(top.body, node) {
				pass.Reportf(node.Pos(),
					"goroutine launched in a loop without a WaitGroup Add/Done-Wait pair or result-channel handshake in the enclosing function")
			}
			walk(node.Call)
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walkChild(m, &walk)
			return false
		})
	}
	walk(fn.Body)
}

// walkChild dispatches one immediate child into walk without re-entering
// ast.Inspect's own recursion.
func walkChild(n ast.Node, walk *func(ast.Node)) {
	if n != nil {
		(*walk)(n)
	}
}

// joinsWorkers reports whether body contains evidence that loop-spawned
// goroutines are joined:
//
//   - WaitGroup pattern: an .Add(...) call plus a .Done() or .Wait() call
//     (Done usually lives inside the goroutine, Wait in the function), or
//   - result-channel pattern: the goroutine body sends on a channel and the
//     function performs a channel receive (or the mirror: the function
//     sends work and the goroutine ranges over the channel, which only
//     terminates via close + a join elsewhere — that shape still requires
//     the WaitGroup evidence, so it is not accepted alone).
func joinsWorkers(body *ast.BlockStmt, g *ast.GoStmt) bool {
	var hasAdd, hasDoneOrWait bool
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Add":
				hasAdd = true
			case "Done", "Wait":
				hasDoneOrWait = true
			}
		}
		return true
	})
	if hasAdd && hasDoneOrWait {
		return true
	}

	// Result-channel handshake: goroutine sends, enclosing function receives.
	goroutineSends := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if _, ok := n.(*ast.SendStmt); ok {
			goroutineSends = true
			return false
		}
		return true
	})
	if !goroutineSends {
		return false
	}
	receives := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				receives = true
				return false
			}
		}
		return true
	})
	return receives
}
