package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randDense returns an r x c matrix with entries drawn uniformly from
// [-1, 1) using the given source.
func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = 2*rng.Float64() - 1
	}
	return m
}

// randSym returns a random symmetric n x n matrix.
func randSym(rng *rand.Rand, n int) *Dense {
	m := randDense(rng, n, n)
	return m.AddMat(m.T()).Scale(0.5)
}

func TestNewDensePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero rows", func() { NewDense(0, 3) }},
		{"zero cols", func() { NewDense(3, 0) }},
		{"negative", func() { NewDense(-1, 2) }},
		{"bad data len", func() { NewDenseData(2, 2, []float64{1, 2, 3}) }},
		{"ragged rows", func() { FromRows([][]float64{{1, 2}, {3}}) }},
		{"empty rows", func() { FromRows(nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 8 {
		t.Fatalf("after Add, At(1,2) = %v, want 8", got)
	}
}

func TestIndexOutOfBoundsPanics(t *testing.T) {
	m := NewDense(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, 2) },
		func() { m.At(-1, 0) },
		func() { m.Set(2, 0, 1) },
		func() { m.Row(2) },
		func() { m.Col(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIdentityAndDiag(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
	d := Diag([]float64{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", d)
	}
	if got := trace(d); got != 6 {
		t.Fatalf("Trace = %v, want 6", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 4, 7)
	if !m.T().T().Equal(m, 0) {
		t.Fatalf("transpose is not an involution")
	}
	if m.T().Rows() != 7 || m.T().Cols() != 4 {
		t.Fatalf("transpose dims wrong")
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 0) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 5, 5)
	if !m.Mul(Identity(5)).Equal(m, 1e-15) {
		t.Fatalf("m * I != m")
	}
	if !Identity(5).Mul(m).Equal(m, 1e-15) {
		t.Fatalf("I * m != m")
	}
}

func TestMulAssociativity(t *testing.T) {
	// Property: (AB)C == A(BC) up to floating point error.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randDense(r, 3, 4)
		b := randDense(r, 4, 5)
		c := randDense(r, 5, 2)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)), 1e-12)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if got := a.AddMat(b); !got.Equal(FromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Fatalf("AddMat wrong: %v", got)
	}
	if got := a.SubMat(a); got.MaxAbs() != 0 {
		t.Fatalf("a - a != 0: %v", got)
	}
	if got := a.Clone().Scale(2); !got.Equal(FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale wrong: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatalf("Clone shares storage with original")
	}
}

func TestRawRowAliases(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	r := a.RawRow(1)
	r[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatalf("RawRow should alias the matrix storage")
	}
	// Row must NOT alias.
	r2 := a.Row(0)
	r2[0] = -1
	if a.At(0, 0) != 1 {
		t.Fatalf("Row must copy")
	}
}

func TestSetRowSetCol(t *testing.T) {
	a := NewDense(2, 3)
	a.SetRow(0, []float64{1, 2, 3})
	a.SetCol(2, []float64{9, 8})
	want := FromRows([][]float64{{1, 2, 9}, {0, 0, 8}})
	if !a.Equal(want, 0) {
		t.Fatalf("SetRow/SetCol result %v, want %v", a, want)
	}
}

func TestIsSymmetric(t *testing.T) {
	if !FromRows([][]float64{{1, 2}, {2, 3}}).IsSymmetric(0) {
		t.Fatalf("symmetric matrix not detected")
	}
	if FromRows([][]float64{{1, 2}, {2.1, 3}}).IsSymmetric(0.01) {
		t.Fatalf("asymmetric matrix passed with small tol")
	}
	if FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}).IsSymmetric(1) {
		t.Fatalf("non-square matrix reported symmetric")
	}
}

func TestSliceColsAndRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	sc := a.SliceCols([]int{2, 0})
	want := FromRows([][]float64{{3, 1}, {6, 4}, {9, 7}})
	if !sc.Equal(want, 0) {
		t.Fatalf("SliceCols = %v, want %v", sc, want)
	}
	sr := a.SliceRows([]int{1})
	if !sr.Equal(FromRows([][]float64{{4, 5, 6}}), 0) {
		t.Fatalf("SliceRows wrong: %v", sr)
	}
	// Slicing must copy.
	sc.Set(0, 0, 100)
	if a.At(0, 2) != 3 {
		t.Fatalf("SliceCols must copy storage")
	}
}

func TestTraceInvariantUnderSimilarity(t *testing.T) {
	// Property from the paper's §2: the trace (sum of eigenvalues / total
	// variance) is invariant under rotation of the axis system.
	rng := rand.New(rand.NewSource(6))
	s := randSym(rng, 5)
	rot := GramSchmidt(randDense(rng, 5, 5)) // orthogonal
	rotated := rot.T().Mul(s).Mul(rot)
	if math.Abs(trace(rotated)-trace(s)) > 1e-10 {
		t.Fatalf("trace not invariant: %v vs %v", trace(rotated), trace(s))
	}
}

// trace sums the diagonal of a square matrix.
func trace(m *Dense) float64 {
	t := 0.0
	for i := 0; i < m.Rows(); i++ {
		t += m.At(i, i)
	}
	return t
}

func TestMaxAbs(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, -4}})
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	big := NewDense(20, 20)
	if s := big.String(); len(s) == 0 {
		t.Fatalf("String returned empty")
	}
	small := NewDense(2, 2)
	if s := small.String(); len(s) == 0 {
		t.Fatalf("String returned empty")
	}
}
