package linalg

import (
	"math"
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

func TestLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randDense(rng, n, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		f, err := LU(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := f.Solve(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !VecEqual(got, want, 1e-8) {
			t.Fatalf("n=%d: solve mismatch", n)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := LU(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randDense(rng, 6, 6)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).Equal(Identity(6), 1e-9) {
		t.Fatalf("A A⁻¹ != I")
	}
	if !inv.Mul(a).Equal(Identity(6), 1e-9) {
		t.Fatalf("A⁻¹ A != I")
	}
}

func TestSVDReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, dims := range [][2]int{{3, 3}, {6, 4}, {4, 6}, {20, 12}} {
		a := randDense(rng, dims[0], dims[1])
		sd, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		if !sd.Reconstruct().Equal(a, 1e-10) {
			t.Fatalf("%v: U Σ Vᵀ != A", dims)
		}
		// Singular values descending and non-negative.
		for i, v := range sd.Values {
			if v < 0 {
				t.Fatalf("negative singular value %v", v)
			}
			if i > 0 && v > sd.Values[i-1]+1e-12 {
				t.Fatalf("singular values not descending: %v", sd.Values)
			}
		}
		// Orthonormal factors.
		r := len(sd.Values)
		if !sd.U.T().Mul(sd.U).Equal(Identity(r), 1e-10) {
			t.Fatalf("%v: U not orthonormal", dims)
		}
		if !sd.V.T().Mul(sd.V).Equal(Identity(r), 1e-10) {
			t.Fatalf("%v: V not orthonormal", dims)
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values 3, 2.
	a := FromRows([][]float64{{3, 0}, {0, 2}})
	sd, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(sd.Values, []float64{3, 2}, 1e-12) {
		t.Fatalf("singular values = %v, want [3 2]", sd.Values)
	}
}

func TestSVDAgreesWithEigOfGram(t *testing.T) {
	// σ_i² must equal the eigenvalues of AᵀA.
	rng := rand.New(rand.NewSource(28))
	a := randDense(rng, 10, 6)
	sd, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := EigSym(a.T().Mul(a))
	if err != nil {
		t.Fatal(err)
	}
	evDesc, _ := ed.Descending()
	for i := range sd.Values {
		if math.Abs(sd.Values[i]*sd.Values[i]-evDesc[i]) > 1e-8 {
			t.Fatalf("σ² %v != eigenvalue %v at %d", sd.Values[i]*sd.Values[i], evDesc[i], i)
		}
	}
}
