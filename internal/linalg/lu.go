package linalg

import (
	"errors"
	"fmt"
	"math"
)

// LUDecomposition holds an LU factorization with partial pivoting,
// P A = L U, stored compactly (L below the diagonal with implicit unit
// diagonal, U on and above it).
type LUDecomposition struct {
	lu    *Dense
	pivot []int
	sign  float64
}

// ErrSingular is returned when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// LU computes the LU factorization of the square matrix a with partial
// pivoting. The input is not modified.
func LU(a *Dense) (*LUDecomposition, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("linalg: LU requires a square matrix, got %dx%d", n, c)
	}
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1.0
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max = v
				p = i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.RawRow(k), lu.RawRow(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			pivot[k], pivot[p] = pivot[p], pivot[k]
			sign = -sign
		}
		pv := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pv
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.RawRow(i), lu.RawRow(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LUDecomposition{lu: lu, pivot: pivot, sign: sign}, nil
}

// Solve solves A x = b for the factored matrix.
func (f *LUDecomposition) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU Solve rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := f.lu.RawRow(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.RawRow(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Inverse returns the inverse of the factored matrix.
func (f *LUDecomposition) Inverse() (*Dense, error) {
	n := f.lu.Rows()
	inv := NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		inv.SetCol(j, col)
	}
	return inv, nil
}

// Inverse returns the inverse of the square matrix a.
func Inverse(a *Dense) (*Dense, error) {
	f, err := LU(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse()
}
