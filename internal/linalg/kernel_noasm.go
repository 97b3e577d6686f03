//go:build !amd64

package linalg

// hasAVX2FMA is declared on every platform so tests can reference it; off
// amd64 it is always false and only the generic kernels run. hasFMA selects
// the fused product chain (fmaStep): the other 64-bit targets compile
// math.FMA to one instruction, and where it is software it is still the
// correctly rounded value, so results stay those of the definition.
var hasFMA, hasAVX2FMA = true, false

func dotUnitary(a, b []float64) float64 { return dotGeneric(a, b) }

func axpyUnitary(alpha float64, x, y []float64) { axpyGeneric(alpha, x, y) }

func axpy4Unitary(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	axpy4Generic(a0, a1, a2, a3, x0, x1, x2, x3, y)
}

func mulTRows(dst, a, b *Dense, lo, hi int) { mulTRowsChain(dst, a, b, lo, hi) }

// rotRows stays the Go loop off amd64: a target that fuses s·v + c·f
// computes its own bits, and the loop is what defines them.
func rotRows(s, c float64, lo, hi []float64) { rotGeneric(s, c, lo, hi) }

func mixRowUnitary(dst, wt, z, eps []float64, sigma float64, scales []float64) {
	mixRowGeneric(dst, wt, len(dst), z, eps, sigma, scales)
}
