// Package linalg provides the dense linear algebra substrate used by the
// dimensionality-reduction library: matrices, vectors, the symmetric
// eigendecomposition, Gram–Schmidt, and the dot/GEMM kernels the scans and
// the covariance run on.
//
// The package is self-contained (standard library only) and tuned for the
// moderate problem sizes that arise in similarity-search dimensionality
// reduction: covariance matrices up to a few hundred rows and data matrices
// with up to a few hundred thousand entries. All matrices are dense and
// stored row-major.
//
// Conventions:
//   - Dimension mismatches are programming errors and panic.
//   - Numerical failures (non-finite input, non-convergence) return errors.
//   - Decompositions never alias or mutate their inputs unless documented.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense row-major matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData creates an r x c matrix backed by data (not copied).
// len(data) must equal r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// FromRows builds a matrix from a slice of equal-length rows (copied).
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows requires at least one non-empty row")
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with the given diagonal.
func Diag(d []float64) *Dense {
	m := NewDense(len(d), len(d))
	for i, v := range d {
		m.data[i*len(d)+i] = v
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a newly allocated slice.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i as a sub-slice of the backing storage. Mutating the
// returned slice mutates the matrix.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RawData returns the row-major backing storage (row i occupies
// [i*Cols(), (i+1)*Cols())). Mutating the returned slice mutates the matrix.
func (m *Dense) RawData() []float64 { return m.data }

// Col returns column j as a newly allocated slice.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: column %d out of bounds for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.RawRow(i), v)
}

// SetCol copies v into column j.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("linalg: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMat returns m + b as a new matrix.
func (m *Dense) AddMat(b *Dense) *Dense {
	m.checkSameDims(b, "AddMat")
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// SubMat returns m - b as a new matrix.
func (m *Dense) SubMat(b *Dense) *Dense {
	m.checkSameDims(b, "SubMat")
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

func (m *Dense) checkSameDims(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: %s dimension mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m * b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	// ikj loop order for cache friendliness on row-major storage.
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k := 0; k < m.cols; k++ {
			a := mrow[k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// Equal reports whether m and b have the same shape and all entries agree to
// within tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// RowSlice returns a view of rows [lo, hi) that shares m's backing storage
// (no copy); mutations are visible through both. It is how the batch engine
// carves query blocks and data tiles without touching the data.
func (m *Dense) RowSlice(lo, hi int) *Dense {
	if lo < 0 || hi > m.rows || lo >= hi {
		panic(fmt.Sprintf("linalg: RowSlice [%d,%d) out of range for %d rows", lo, hi, m.rows))
	}
	return &Dense{rows: hi - lo, cols: m.cols, data: m.data[lo*m.cols : hi*m.cols]}
}

// SliceCols returns a copy of m restricted to the given column indices, in
// the order provided.
func (m *Dense) SliceCols(cols []int) *Dense {
	if len(cols) == 0 {
		panic("linalg: SliceCols requires at least one column")
	}
	out := NewDense(m.rows, len(cols))
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := out.data[i*out.cols : (i+1)*out.cols]
		for k, j := range cols {
			if j < 0 || j >= m.cols {
				panic(fmt.Sprintf("linalg: SliceCols column %d out of range [0,%d)", j, m.cols))
			}
			dst[k] = src[j]
		}
	}
	return out
}

// SliceRows returns a copy of m restricted to the given row indices, in the
// order provided.
func (m *Dense) SliceRows(rows []int) *Dense {
	if len(rows) == 0 {
		panic("linalg: SliceRows requires at least one row")
	}
	out := NewDense(len(rows), m.cols)
	for k, i := range rows {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("linalg: SliceRows row %d out of range [0,%d)", i, m.rows))
		}
		copy(out.data[k*out.cols:(k+1)*out.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return out
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense(%dx%d)[\n", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxShow; i++ {
		sb.WriteString("  ")
		for j := 0; j < m.cols && j < maxShow; j++ {
			fmt.Fprintf(&sb, "% .4g ", m.At(i, j))
		}
		if m.cols > maxShow {
			sb.WriteString("...")
		}
		sb.WriteString("\n")
	}
	if m.rows > maxShow {
		sb.WriteString("  ...\n")
	}
	sb.WriteString("]")
	return sb.String()
}
