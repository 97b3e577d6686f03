package linalg

import (
	"math/rand"
	"testing"
)

func TestGramSchmidt(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randDense(rng, 6, 4)
	q := GramSchmidt(a)
	if !q.T().Mul(q).Equal(Identity(q.Cols()), 1e-10) {
		t.Fatalf("GramSchmidt columns not orthonormal")
	}
}

func TestGramSchmidtDropsDependentColumns(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2, 3},
		{0, 0, 1},
		{0, 0, 0},
	})
	// Column 1 is 2x column 0 → must be dropped.
	q := GramSchmidt(a)
	if q.Cols() != 2 {
		t.Fatalf("expected 2 independent columns, got %d", q.Cols())
	}
}
