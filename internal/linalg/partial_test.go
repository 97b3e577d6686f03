package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestTopKEigenMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ n, k int }{
		{20, 3},   // dense fallback (small n)
		{100, 5},  // Lanczos path
		{150, 10}, // Lanczos path
		{80, 40},  // dense fallback (large k)
	} {
		b := randDense(rng, tc.n+30, tc.n)
		a := b.T().Mul(b).Scale(1 / float64(tc.n+30))
		vals, vecs, err := TopKEigen(a, tc.k, rng)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		ed, err := EigSym(a)
		if err != nil {
			t.Fatal(err)
		}
		dense, _ := ed.Descending()
		for i := 0; i < tc.k; i++ {
			if math.Abs(vals[i]-dense[i]) > 1e-6*(1+dense[i]) {
				t.Fatalf("n=%d k=%d: eigenvalue %d: %v vs %v", tc.n, tc.k, i, vals[i], dense[i])
			}
			// Each returned vector is a true eigenvector: small residual.
			v := vecs.Col(i)
			av := a.MulVec(v)
			for j := range av {
				av[j] -= vals[i] * v[j]
			}
			if Norm2(av) > 1e-6*(1+vals[i]) {
				t.Fatalf("n=%d k=%d: residual of pair %d = %v", tc.n, tc.k, i, Norm2(av))
			}
		}
		// Orthonormal columns.
		if !vecs.T().Mul(vecs).Equal(Identity(tc.k), 1e-8) {
			t.Fatalf("n=%d k=%d: Ritz vectors not orthonormal", tc.n, tc.k)
		}
	}
}

func TestTopKEigenLowRankEarlyTermination(t *testing.T) {
	// Rank-2 matrix in 100 dims: Lanczos finds the invariant subspace in a
	// couple of steps and must not fail.
	rng := rand.New(rand.NewSource(5))
	u1 := make([]float64, 100)
	u2 := make([]float64, 100)
	for i := range u1 {
		u1[i] = rng.NormFloat64()
		u2[i] = rng.NormFloat64()
	}
	Normalize(u1)
	Axpy(-Dot(u1, u2), u1, u2)
	Normalize(u2)
	a := Outer(u1, u1).Scale(9).AddMat(Outer(u2, u2).Scale(4))
	vals, _, err := TopKEigen(a, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-9) > 1e-7 || math.Abs(vals[1]-4) > 1e-7 {
		t.Fatalf("rank-2 eigenvalues = %v", vals)
	}
}

func TestTopKEigenValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Identity(5)
	if _, _, err := TopKEigen(NewDense(2, 3), 1, rng); err == nil {
		t.Fatalf("non-square accepted")
	}
	if _, _, err := TopKEigen(a, 0, rng); err == nil {
		t.Fatalf("k=0 accepted")
	}
	if _, _, err := TopKEigen(a, 6, rng); err == nil {
		t.Fatalf("k>n accepted")
	}
}
