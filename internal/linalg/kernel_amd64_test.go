//go:build amd64

package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAxpy4AVX2IsFourAxpyAVX2 calls the four-row kernel directly at every
// length 0…40, below asmMinLen too, where dispatch never sends it: each
// element must take the four fused steps of four axpyAVX2 calls in order.
func TestAxpy4AVX2IsFourAxpyAVX2(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2/FMA")
	}
	rng := rand.New(rand.NewSource(107))
	for d := 0; d <= 40; d++ {
		for trial := 0; trial < 20; trial++ {
			var a [4]float64
			var x [4][]float64
			for r := range a {
				a[r], x[r] = rng.NormFloat64(), parityVec(rng, d)
			}
			y := parityVec(rng, d)
			want := append([]float64(nil), y...)
			for r := range a {
				axpyAVX2(a[r], x[r], want)
			}
			axpy4AVX2(a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3], y)
			requireSameBits(t, fmt.Sprintf("d=%d trial=%d", d, trial), y, want)
		}
	}
}
