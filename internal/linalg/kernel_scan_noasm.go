//go:build !amd64

package linalg

func firstBelowUnitary(g, norms []float64, qn, bound float64) int {
	return firstBelowGeneric(g, norms, qn, bound)
}

func firstBelowEitherUnitary(g, norms, bounds []float64, qn, bound float64) int {
	return firstBelowEitherGeneric(g, norms, bounds, qn, bound)
}
