package linalg

import (
	"math"
	"sort"
)

// SVDDecomposition holds a thin singular value decomposition A = U Σ Vᵀ of an
// m x n matrix with m >= n. U is m x n with orthonormal columns, V is n x n
// orthogonal, and Values holds the singular values in descending order.
type SVDDecomposition struct {
	U      *Dense
	V      *Dense
	Values []float64
}

// SVD computes the thin singular value decomposition of a using the
// one-sided Jacobi (Hestenes) method, which is simple, backward stable and
// accurate for the moderate sizes this library targets. If a has more
// columns than rows, the decomposition is computed on the transpose and the
// factors are swapped accordingly, so the returned U/V always match the
// original orientation (U: rows(a) x r, V: cols(a) x r with r = min dims).
func SVD(a *Dense) (*SVDDecomposition, error) {
	m, n := a.Dims()
	if m < n {
		sd, err := SVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDDecomposition{U: sd.V, V: sd.U, Values: sd.Values}, nil
	}
	u := a.Clone()
	v := Identity(n)
	const maxSweeps = 60
	// Convergence threshold on the cosine of the angle between columns.
	eps := 1e-15

	converged := false
	for sweep := 0; sweep < maxSweeps && !converged; sweep++ {
		converged = true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram entries for columns p and q.
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					alpha += up * up
					beta += uq * uq
					gamma += up * uq
				}
				if gamma == 0 {
					continue
				}
				if math.Abs(gamma) > eps*math.Sqrt(alpha*beta) {
					converged = false
				} else {
					continue
				}
				// Jacobi rotation that zeroes the off-diagonal Gram entry.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					u.Set(i, p, c*up-s*uq)
					u.Set(i, q, s*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
	}
	if !converged {
		return nil, ErrNoConvergence
	}

	// Column norms of the rotated matrix are the singular values.
	vals := make([]float64, n)
	for j := 0; j < n; j++ {
		vals[j] = Norm2(u.Col(j))
	}
	// Sort descending, permuting U and V columns together.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	uo := NewDense(m, n)
	vo := NewDense(n, n)
	sv := make([]float64, n)
	for k, j := range idx {
		sv[k] = vals[j]
		col := u.Col(j)
		if sv[k] > 0 {
			ScaleVec(1/sv[k], col)
		}
		uo.SetCol(k, col)
		vo.SetCol(k, v.Col(j))
	}
	return &SVDDecomposition{U: uo, V: vo, Values: sv}, nil
}

// Reconstruct returns U Σ Vᵀ.
func (s *SVDDecomposition) Reconstruct() *Dense {
	return s.U.Mul(Diag(s.Values)).Mul(s.V.T())
}
