//go:build !amd64

package core

// hasAVX2 is declared on every platform so tests can reference it; off
// amd64 it is false and the Go loop runs.
var hasAVX2 = false

func coherenceRow(p, s, sumsSq, sumsCF, sumsCP []float64, _ []int32) {
	coherenceRowGeneric(p, s, sumsSq, sumsCF, sumsCP)
}
