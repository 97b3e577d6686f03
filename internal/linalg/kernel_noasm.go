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

func mulTRows(dst, a, b *Dense, lo, hi int) { mulTRowsChain(dst, a, b, lo, hi) }
