package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// TopKEigen computes the k eigenpairs of largest eigenvalue of the
// symmetric positive semi-definite matrix a (covariance matrices — the use
// case of this library) via Lanczos iteration with full
// reorthogonalization, falling back to the dense solver when k is not much
// smaller than the dimension. Eigenvalues are returned descending with unit
// eigenvectors as the columns of the returned matrix.
func TopKEigen(a *Dense, k int, rng *rand.Rand) ([]float64, *Dense, error) {
	n, c := a.Dims()
	if n != c {
		return nil, nil, fmt.Errorf("linalg: TopKEigen requires square matrix, got %dx%d", n, c)
	}
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("linalg: TopKEigen k=%d out of [1,%d]", k, n)
	}
	// For small problems or large k the dense path is both faster and
	// simpler.
	if n <= 64 || k*3 >= n {
		ed, err := EigSym(a)
		if err != nil {
			return nil, nil, err
		}
		vals, vecs := ed.Descending()
		cols := make([]int, k)
		for i := range cols {
			cols[i] = i
		}
		return vals[:k], vecs.SliceCols(cols), nil
	}

	// Lanczos with full reorthogonalization: grow the Krylov basis until
	// the top-k Ritz pairs converge (standard residual bound
	// ‖A y − θ y‖ = |β_j|·|s_j| with s_j the last component of the small
	// eigenvector), then lift the Ritz vectors.
	const ritzTol = 1e-10
	maxBasis := n
	basis := make([][]float64, 0, 4*k)
	alphas := make([]float64, 0, 4*k)
	betas := make([]float64, 0, 4*k) // betas[i] couples basis[i] and basis[i+1]

	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	Normalize(v)
	basis = append(basis, v)

	var tvals []float64
	var tvecs *Dense
	solveSmall := func() error {
		mm := len(alphas)
		tri := NewDense(mm, mm)
		for i := 0; i < mm; i++ {
			tri.Set(i, i, alphas[i])
			if i+1 < mm {
				tri.Set(i, i+1, betas[i])
				tri.Set(i+1, i, betas[i])
			}
		}
		ed, err := EigSym(tri)
		if err != nil {
			return err
		}
		tvals, tvecs = ed.Descending()
		return nil
	}

	exhausted := false
	for j := 0; ; j++ {
		w := a.MulVec(basis[j])
		alpha := Dot(w, basis[j])
		alphas = append(alphas, alpha)
		Axpy(-alpha, basis[j], w)
		if j > 0 {
			Axpy(-betas[j-1], basis[j-1], w)
		}
		// Full reorthogonalization for numerical robustness.
		for pass := 0; pass < 2; pass++ {
			for _, u := range basis {
				Axpy(-Dot(u, w), u, w)
			}
		}
		beta := Norm2(w)
		if beta < 1e-13 || len(basis) == maxBasis {
			exhausted = true // invariant subspace or full space reached
		}
		// Convergence check once the basis can hold k Ritz pairs.
		if mm := len(alphas); mm >= k && (exhausted || mm%4 == 0) {
			if err := solveSmall(); err != nil {
				return nil, nil, err
			}
			converged := true
			scale := math.Max(1, math.Abs(tvals[0]))
			for i := 0; i < k; i++ {
				if beta*math.Abs(tvecs.At(mm-1, i)) > ritzTol*scale {
					converged = false
					break
				}
			}
			if converged || exhausted {
				break
			}
		}
		if exhausted {
			if err := solveSmall(); err != nil {
				return nil, nil, err
			}
			break
		}
		betas = append(betas, beta)
		ScaleVec(1/beta, w)
		basis = append(basis, w)
	}

	mm := len(alphas)
	if k > mm {
		k = mm
	}
	vals := make([]float64, k)
	vecs := NewDense(n, k)
	for i := 0; i < k; i++ {
		vals[i] = tvals[i]
		ritz := make([]float64, n)
		for j := 0; j < mm && j < len(basis); j++ {
			Axpy(tvecs.At(j, i), basis[j], ritz)
		}
		Normalize(ritz)
		vecs.SetCol(i, ritz)
	}
	return vals, vecs, nil
}
