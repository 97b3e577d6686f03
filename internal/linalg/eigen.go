package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// EigenDecomposition holds the spectral decomposition of a real symmetric
// matrix A = V Λ Vᵀ. Eigenvalues are sorted in ascending order and the i-th
// column of Vectors is the unit eigenvector for Values[i].
type EigenDecomposition struct {
	// Values holds the eigenvalues in ascending order.
	Values []float64
	// Vectors holds the corresponding orthonormal eigenvectors as columns.
	Vectors *Dense
}

// ErrNoConvergence is returned when an iterative eigensolver fails to
// converge within its iteration budget.
var ErrNoConvergence = errors.New("linalg: eigensolver failed to converge")

// ErrNotFinite is returned when the matrix handed to an eigensolver holds a
// NaN or ±Inf entry. Neither solver can make progress on one: QL gives up
// after its iteration budget, Jacobi spins through all of its sweeps, and an
// infinite diagonal comes back as an "eigenvalue".
var ErrNotFinite = errors.New("linalg: matrix has a non-finite entry")

// EigSym computes the spectral decomposition of the symmetric matrix a.
// It first attempts the fast Householder-tridiagonalization + implicit-shift
// QL path and falls back to the (slower but extremely robust) cyclic Jacobi
// method if QL fails to converge. The input is not modified.
func EigSym(a *Dense) (*EigenDecomposition, error) {
	maxAbs, err := checkSquareFinite("EigSym", a)
	if err != nil {
		return nil, err
	}
	if !a.IsSymmetric(1e-10 * (1 + maxAbs)) {
		return nil, errors.New("linalg: EigSym requires a symmetric matrix")
	}
	ed, err := eigSymTridiag(a)
	if err == nil {
		return ed, nil
	}
	return eigSymJacobi(a)
}

// EigSymJacobi computes the spectral decomposition using the cyclic Jacobi
// method only. It is exposed for cross-validation against the QL path.
func EigSymJacobi(a *Dense) (*EigenDecomposition, error) {
	if _, err := checkSquareFinite("EigSymJacobi", a); err != nil {
		return nil, err
	}
	return eigSymJacobi(a)
}

// EigSymQL computes the spectral decomposition using Householder
// tridiagonalization followed by the implicit-shift QL algorithm only.
func EigSymQL(a *Dense) (*EigenDecomposition, error) {
	if _, err := checkSquareFinite("EigSymQL", a); err != nil {
		return nil, err
	}
	return eigSymTridiag(a)
}

// checkSquareFinite is the one pass every entry point makes over its input:
// it rejects a non-square matrix and a NaN or ±Inf entry (ErrNotFinite), and
// returns the largest absolute entry, which scales EigSym's symmetry
// tolerance.
func checkSquareFinite(fn string, a *Dense) (maxAbs float64, err error) {
	if a.rows != a.cols {
		return 0, fmt.Errorf("linalg: %s requires a square matrix, got %dx%d", fn, a.rows, a.cols)
	}
	for i, v := range a.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: %s got %v at (%d,%d)", ErrNotFinite, fn, v, i/a.cols, i%a.cols)
		}
		if abs := math.Abs(v); abs > maxAbs {
			maxAbs = abs
		}
	}
	return maxAbs, nil
}

// eigSymJacobi implements the cyclic Jacobi eigenvalue algorithm with the
// standard Rutishauser rotation formulas.
func eigSymJacobi(in *Dense) (*EigenDecomposition, error) {
	n := in.Rows()
	a := in.Clone()
	v := Identity(n)
	const maxSweeps = 100

	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				off += a.At(p, q) * a.At(p, q)
			}
		}
		if off == 0 {
			break
		}
		// Convergence when the off-diagonal mass is negligible relative to
		// the diagonal mass.
		diag := 0.0
		for i := 0; i < n; i++ {
			diag += a.At(i, i) * a.At(i, i)
		}
		if off <= 1e-30*(diag+off) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if apq == 0 {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				// Skip rotations that cannot change anything at this
				// precision.
				if math.Abs(apq) <= 1e-300 || math.Abs(apq) < 1e-18*(math.Abs(app)+math.Abs(aqq)) {
					a.Set(p, q, 0)
					a.Set(q, p, 0)
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e12 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				tau := s / (1 + c)

				a.Set(p, p, app-t*apq)
				a.Set(q, q, aqq+t*apq)
				a.Set(p, q, 0)
				a.Set(q, p, 0)
				for i := 0; i < n; i++ {
					switch {
					case i != p && i != q:
						aip := a.At(i, p)
						aiq := a.At(i, q)
						a.Set(i, p, aip-s*(aiq+tau*aip))
						a.Set(i, q, aiq+s*(aip-tau*aiq))
						a.Set(p, i, a.At(i, p))
						a.Set(q, i, a.At(i, q))
					}
					vip := v.At(i, p)
					viq := v.At(i, q)
					v.Set(i, p, vip-s*(viq+tau*vip))
					v.Set(i, q, viq+s*(vip-tau*viq))
				}
			}
		}
		if sweep == maxSweeps-1 {
			return nil, ErrNoConvergence
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a.At(i, i)
	}
	return sortEigen(vals, v), nil
}

// eigSymTridiag reduces a to tridiagonal form with Householder reflections
// (tred2) and then diagonalizes with the implicit-shift QL algorithm (tqli).
//
// Layout: tred2 leaves the accumulated transformation Z in z; tqli would
// rotate pairs of its columns, a stride-n walk, so z is transposed in place
// between the two and tqli rotates pairs of contiguous rows of Zᵀ; it is
// transposed back before the eigenvectors are sorted into columns.
//
// Both routines index z.data directly, and every floating-point expression
// keeps the shape, operand order and per-element loop order of the
// At/Set-based EISPACK transcription frozen in eigen_test.go (no
// re-association: arm64 may fuse x*y+z, so even an algebraically equal
// rewrite can change bits). TestEigSymBitIdenticalToOracle holds Values and
// Vectors to that transcription bit for bit; results downstream (coherence
// order, accuracy) are pinned to these bits.
func eigSymTridiag(in *Dense) (*EigenDecomposition, error) {
	n := in.Rows()
	z := in.Clone() // will accumulate the transformation
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, d, e)
	transposeSquare(z)
	if err := tqli(d, e, z); err != nil {
		return nil, err
	}
	transposeSquare(z)
	return sortEigen(d, z), nil
}

// transposeSquare transposes the square matrix m in place.
func transposeSquare(m *Dense) {
	n, a := m.rows, m.data
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*n+j], a[j*n+i] = a[j*n+i], a[i*n+j]
		}
	}
}

// tred2 performs Householder reduction of the symmetric matrix z to
// tridiagonal form. On return d holds the diagonal, e the subdiagonal
// (e[0] = 0), and z the accumulated orthogonal transformation.
// Adapted to 0-based indexing from the classic EISPACK/Numerical Recipes
// routine.
func tred2(z *Dense, d, e []float64) {
	n, a := z.rows, z.data
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		zi := a[i*n : i*n+i] // row i left of the diagonal: z(i, 0..l)
		h := 0.0
		scale := 0.0
		if l > 0 {
			for _, v := range zi {
				scale += math.Abs(v)
			}
			if scale == 0 {
				e[i] = zi[l]
			} else {
				for k, v := range zi {
					zik := v / scale
					zi[k] = zik
					h += zik * zik
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				f = 0.0
				for j := 0; j <= l; j++ {
					a[j*n+i] = zi[j] / h
					g = 0.0
					zj := a[j*n : j*n+j+1]
					for k, v := range zj {
						g += v * zi[k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k*n+j] * zi[k]
					}
					e[j] = g / h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = zi[j]
					g = e[j] - hh*f
					e[j] = g
					zj := a[j*n : j*n+j+1]
					for k, v := range zj {
						zj[k] = v - f*e[k] - g*zi[k]
					}
				}
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	for i := 0; i < n; i++ {
		zi := a[i*n : i*n+i] // z(i, 0..i-1)
		if d[i] != 0 {
			for j := range zi {
				g := 0.0
				for k, v := range zi {
					g += v * a[k*n+j]
				}
				for k := range zi {
					a[k*n+j] -= g * a[k*n+i]
				}
			}
		}
		d[i] = a[i*n+i]
		a[i*n+i] = 1.0
		for j := range zi {
			a[j*n+i] = 0.0
			zi[j] = 0.0
		}
	}
}

// tqli diagonalizes a symmetric tridiagonal matrix given by diagonal d and
// subdiagonal e (e[0] unused) using the QL algorithm with implicit shifts,
// accumulating the rotations into zt, the transpose of tred2's
// transformation. On success d holds the eigenvalues and the rows of zt the
// eigenvectors.
func tqli(d, e []float64, zt *Dense) error {
	n, a := len(d), zt.data
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2.0 * e[l])
			r := math.Hypot(g, 1.0)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Negligible rotation: deflate and restart this
					// eigenvalue unless the whole sweep completed.
					d[i+1] -= p
					e[m] = 0.0
					underflow = i >= l
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2.0*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				lo := a[i*n : (i+1)*n]     // column i of Z
				hi := a[(i+1)*n : (i+2)*n] // column i+1 of Z
				for k, v := range lo {
					f = hi[k]
					hi[k] = s*v + c*f
					lo[k] = c*v - s*f
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0.0
		}
	}
	return nil
}

// sortEigen sorts eigenpairs ascending by eigenvalue, reordering the columns
// of v to match.
func sortEigen(vals []float64, v *Dense) *EigenDecomposition {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	outVals := make([]float64, n)
	outVecs := NewDense(v.Rows(), n)
	for k, i := range idx {
		outVals[k] = vals[i]
		outVecs.SetCol(k, v.Col(i))
	}
	return &EigenDecomposition{Values: outVals, Vectors: outVecs}
}

// Descending returns the eigenvalues and eigenvectors reordered so that
// eigenvalues are in descending order. The receiver is unchanged.
func (ed *EigenDecomposition) Descending() ([]float64, *Dense) {
	n := len(ed.Values)
	vals := make([]float64, n)
	vecs := NewDense(ed.Vectors.Rows(), n)
	for i := 0; i < n; i++ {
		vals[i] = ed.Values[n-1-i]
		vecs.SetCol(i, ed.Vectors.Col(n-1-i))
	}
	return vals, vecs
}

// Reconstruct returns V Λ Vᵀ, useful for verifying the decomposition.
func (ed *EigenDecomposition) Reconstruct() *Dense {
	return ed.Vectors.Mul(Diag(ed.Values)).Mul(ed.Vectors.T())
}

// Residual returns the max-abs entry of A·V − V·Λ, a direct measure of the
// decomposition quality for the matrix a.
func (ed *EigenDecomposition) Residual(a *Dense) float64 {
	av := a.Mul(ed.Vectors)
	vl := ed.Vectors.Mul(Diag(ed.Values))
	return av.SubMat(vl).MaxAbs()
}
