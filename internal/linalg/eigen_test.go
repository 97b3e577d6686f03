package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func checkEigen(t *testing.T, a *Dense, ed *EigenDecomposition, tol float64) {
	t.Helper()
	n := a.Rows()
	if len(ed.Values) != n {
		t.Fatalf("got %d eigenvalues, want %d", len(ed.Values), n)
	}
	// Sorted ascending.
	if !sort.Float64sAreSorted(ed.Values) {
		t.Fatalf("eigenvalues not ascending: %v", ed.Values)
	}
	// Residual ‖A·V − V·Λ‖.
	if r := ed.Residual(a); r > tol {
		t.Fatalf("eigen residual %g exceeds %g", r, tol)
	}
	// Orthonormality VᵀV = I.
	vtv := ed.Vectors.T().Mul(ed.Vectors)
	if !vtv.Equal(Identity(n), tol) {
		t.Fatalf("eigenvectors not orthonormal, VᵀV deviates by %g", vtv.SubMat(Identity(n)).MaxAbs())
	}
	// Trace == sum of eigenvalues.
	sum := 0.0
	for _, v := range ed.Values {
		sum += v
	}
	if math.Abs(sum-trace(a)) > tol*float64(n) {
		t.Fatalf("eigenvalue sum %v != trace %v", sum, trace(a))
	}
}

func TestEigSymDiagonal(t *testing.T) {
	a := Diag([]float64{3, 1, 2})
	ed, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(ed.Values, []float64{1, 2, 3}, 1e-12) {
		t.Fatalf("eigenvalues of diag(3,1,2) = %v, want [1 2 3]", ed.Values)
	}
	checkEigen(t, a, ed, 1e-12)
}

func TestEigSym2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	ed, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(ed.Values, []float64{1, 3}, 1e-12) {
		t.Fatalf("eigenvalues = %v, want [1 3]", ed.Values)
	}
	checkEigen(t, a, ed, 1e-12)
}

func TestEigSymIdentity(t *testing.T) {
	ed, err := EigSym(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ed.Values {
		if math.Abs(v-1) > 1e-14 {
			t.Fatalf("identity eigenvalue %v != 1", v)
		}
	}
}

func TestEigSymRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{2, 3, 5, 10, 25, 60} {
		a := randSym(rng, n)
		ed, err := EigSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkEigen(t, a, ed, 1e-9)
	}
}

func TestEigSymJacobiVsQL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 8, 20, 40} {
		a := randSym(rng, n)
		j, err := EigSymJacobi(a)
		if err != nil {
			t.Fatalf("jacobi n=%d: %v", n, err)
		}
		q, err := EigSymQL(a)
		if err != nil {
			t.Fatalf("ql n=%d: %v", n, err)
		}
		if !VecEqual(j.Values, q.Values, 1e-8) {
			t.Fatalf("n=%d eigenvalues disagree:\njacobi %v\nql     %v", n, j.Values, q.Values)
		}
		checkEigen(t, a, j, 1e-9)
		checkEigen(t, a, q, 1e-9)
	}
}

func TestEigSymPSDNonNegative(t *testing.T) {
	// Covariance matrices are PSD; eigenvalues must be >= 0 (up to noise).
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5; trial++ {
		b := randDense(rng, 12, 8)
		a := b.T().Mul(b) // Gram matrix, PSD.
		ed, err := EigSym(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ed.Values {
			if v < -1e-9 {
				t.Fatalf("PSD matrix has negative eigenvalue %v", v)
			}
		}
		checkEigen(t, a, ed, 1e-8)
	}
}

func TestEigSymRepeatedEigenvalues(t *testing.T) {
	// A matrix with a degenerate eigenspace: still must produce an
	// orthonormal basis.
	a := FromRows([][]float64{
		{2, 0, 0},
		{0, 2, 0},
		{0, 0, 5},
	})
	ed, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(ed.Values, []float64{2, 2, 5}, 1e-12) {
		t.Fatalf("eigenvalues = %v", ed.Values)
	}
	checkEigen(t, a, ed, 1e-12)
}

func TestEigSymRejectsNonSquare(t *testing.T) {
	if _, err := EigSym(NewDense(2, 3)); err == nil {
		t.Fatalf("expected error for non-square input")
	}
}

func TestEigSymRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := EigSym(a); err == nil {
		t.Fatalf("expected error for asymmetric input")
	}
}

func TestEigenReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSym(rng, 7)
	ed, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ed.Reconstruct().Equal(a, 1e-9) {
		t.Fatalf("V Λ Vᵀ does not reconstruct A")
	}
}

func TestEigenDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randSym(rng, 6)
	ed, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs := ed.Descending()
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			t.Fatalf("Descending not sorted: %v", vals)
		}
	}
	// Each descending pair must still satisfy A v = λ v.
	av := a.Mul(vecs)
	for i := 0; i < len(vals); i++ {
		for k := 0; k < av.Rows(); k++ {
			if math.Abs(av.At(k, i)-vals[i]*vecs.At(k, i)) > 1e-9 {
				t.Fatalf("descending pair %d violates A v = λ v", i)
			}
		}
	}
}

func TestEigenPropertyQuick(t *testing.T) {
	// Property: for random symmetric matrices of random small size, the
	// decomposition reconstructs the input and V is orthogonal.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		a := randSym(rng, n)
		ed, err := EigSym(a)
		if err != nil {
			return false
		}
		return ed.Reconstruct().Equal(a, 1e-8) &&
			ed.Vectors.T().Mul(ed.Vectors).Equal(Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigSymLargeCovarianceShape(t *testing.T) {
	// A 150x150 covariance-like matrix (similar in size to the paper's Musk
	// data set) must decompose quickly and accurately.
	rng := rand.New(rand.NewSource(15))
	b := randDense(rng, 200, 150)
	a := b.T().Mul(b).Scale(1.0 / 200.0)
	ed, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	checkEigen(t, a, ed, 1e-7)
}

func TestEigSymNearScalarMatrix(t *testing.T) {
	// Nearly-scalar matrices exercise the small-rotation paths.
	a := Identity(5)
	a.Set(0, 1, 1e-13)
	a.Set(1, 0, 1e-13)
	ed, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	checkEigen(t, a, ed, 1e-10)
}

// The oracle: the At/Set-based EISPACK transcription of tred2 and tqli that
// eigen.go's row-slice loops replaced, frozen here. eigSymTridiag promises
// the same floating-point expressions in the same per-element order, so its
// output must match this bit for bit; do not "tidy" these two functions.

func tred2Oracle(z *Dense, d, e []float64) {
	n := z.Rows()
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h := 0.0
		scale := 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					zik := z.At(i, k) / scale
					z.Set(i, k, zik)
					h += zik * zik
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0.0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0.0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-f*e[k]-g*z.At(i, k))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1.0)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0.0)
			z.Set(i, j, 0.0)
		}
	}
}

func tqliOracle(d, e []float64, z *Dense) error {
	n := len(d)
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
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
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

// eigSymQLOracle is EigSymQL as the parent commit computed it.
func eigSymQLOracle(in *Dense) (*EigenDecomposition, error) {
	n := in.Rows()
	z := in.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2Oracle(z, d, e)
	if err := tqliOracle(d, e, z); err != nil {
		return nil, err
	}
	return sortEigen(d, z), nil
}

// diffEigenBits compares EigSymQL on a with the oracle and describes the
// first disagreement: the error, or the Float64bits of any eigenvalue or
// eigenvector entry. It returns "" when the two agree.
func diffEigenBits(a *Dense) string {
	got, gotErr := EigSymQL(a)
	want, wantErr := eigSymQLOracle(a)
	if gotErr != nil || wantErr != nil {
		if !errors.Is(gotErr, wantErr) {
			return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
		}
		return ""
	}
	for i, v := range got.Values {
		if math.Float64bits(v) != math.Float64bits(want.Values[i]) {
			return fmt.Sprintf("eigenvalue %d = %v (%#x), oracle %v (%#x)", i,
				v, math.Float64bits(v), want.Values[i], math.Float64bits(want.Values[i]))
		}
	}
	n := a.Rows()
	for i, v := range got.Vectors.data {
		if w := want.Vectors.data[i]; math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Sprintf("vector entry (%d,%d) = %v (%#x), oracle %v (%#x)", i/n, i%n,
				v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
	return ""
}

// oracleSizes brackets the paper's d = 166 and covers the degenerate orders
// (n = 1 has no reflection, n = 2 skips tred2's scaled branch).
var oracleSizes = []int{1, 2, 3, 5, 16, 64, 165, 166, 167, 200}

func TestEigSymBitIdenticalToOracle(t *testing.T) {
	randUnit := func(rng *rand.Rand, n int) []float64 {
		u := make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		ScaleVec(1/Norm2(u), u)
		return u
	}
	families := []struct {
		name string
		gen  func(rng *rand.Rand, n int) *Dense
	}{
		{"random-psd", func(rng *rand.Rand, n int) *Dense {
			return AtA(randDense(rng, n+5, n)).Scale(1 / float64(n+5))
		}},
		{"repeated", func(rng *rand.Rand, n int) *Dense {
			// H·diag(1,2,5,1,2,5,…)·H under one Householder reflection H.
			lam := make([]float64, n)
			for i := range lam {
				lam[i] = []float64{1, 2, 5}[i%3]
			}
			u := randUnit(rng, n)
			h := Identity(n).SubMat(Outer(u, u).Scale(2))
			m := h.Mul(Diag(lam)).Mul(h)
			return m.AddMat(m.T()).Scale(0.5)
		}},
		{"near-scalar", func(rng *rand.Rand, n int) *Dense {
			return Identity(n).AddMat(randSym(rng, n).Scale(1e-13))
		}},
		{"diagonal", func(rng *rand.Rand, n int) *Dense {
			return Diag(randDense(rng, 1, n).RawRow(0))
		}},
		{"zero", func(_ *rand.Rand, n int) *Dense { return NewDense(n, n) }},
		{"rank-1", func(rng *rand.Rand, n int) *Dense {
			u := randUnit(rng, n)
			return Outer(u, u)
		}},
	}
	// The Musk-like generator's covariance, the seventh family, needs
	// packages that import this one: eigen_musk_test.go.
	for _, fam := range families {
		for _, n := range oracleSizes {
			a := fam.gen(rand.New(rand.NewSource(int64(1000+n))), n)
			if diff := diffEigenBits(a); diff != "" {
				t.Errorf("%s n=%d: %s", fam.name, n, diff)
			}
		}
	}
}

// TestEigSolversRejectNonFinite: one NaN or ±Inf entry is ErrNotFinite at
// every entry point, found by the input scan (well under a millisecond at
// the paper's size) instead of after QL's 50 iterations and Jacobi's 100
// sweeps (≈ 7.6 s, ErrNoConvergence) — or, for an infinite diagonal, instead
// of a nil error with a +Inf eigenvalue.
func TestEigSolversRejectNonFinite(t *testing.T) {
	solvers := []struct {
		name  string
		solve func(*Dense) (*EigenDecomposition, error)
	}{{"EigSym", EigSym}, {"EigSymQL", EigSymQL}, {"EigSymJacobi", EigSymJacobi}}
	const n = 166
	gram := AtA(randDense(rand.New(rand.NewSource(16)), 2*n, n))
	for _, s := range solvers {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, at := range [][2]int{{n - 1, n - 1}, {3, 40}} {
				a := gram.Clone()
				a.Set(at[0], at[1], bad)
				a.Set(at[1], at[0], bad)
				start := time.Now()
				ed, err := s.solve(a)
				if !errors.Is(err, ErrNotFinite) || ed != nil {
					t.Errorf("%s with %v at %v: decomposition %v, error %v, want ErrNotFinite", s.name, bad, at, ed != nil, err)
				}
				if took := time.Since(start); took > 100*time.Millisecond {
					t.Errorf("%s with %v at %v took %v: the scan must reject before any sweep", s.name, bad, at, took)
				}
			}
		}
	}
}

// fuzzSymmetric decodes fuzz bytes into a symmetric matrix of order
// 1 + data[0]%24. Each upper-triangle entry takes three bytes: an int16
// mantissa m and a shift s give m/8192 · 2^−(s%48), so exact zeros, repeated
// values and entries forty binades apart are all a few byte flips away while
// every finite matrix stays inside [−4, 4]; the three mantissas nearest
// overflow stand for NaN, +Inf and −Inf. Missing bytes read as zero.
func fuzzSymmetric(data []byte) (a *Dense, finite bool) {
	n := 1 + int(data[0])%24
	data = data[1:]
	a, finite = NewDense(n, n), true
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var b [3]byte
			data = data[copy(b[:], data):]
			m := int16(binary.LittleEndian.Uint16(b[:2]))
			v := math.Ldexp(float64(m)/8192, -int(b[2]%48))
			switch m {
			case math.MinInt16:
				v, finite = math.NaN(), false
			case math.MaxInt16:
				v, finite = math.Inf(1), false
			case math.MinInt16 + 1:
				v, finite = math.Inf(-1), false
			}
			a.data[i*n+j], a.data[j*n+i] = v, v
		}
	}
	return a, finite
}

// FuzzEigSym: any finite symmetric matrix decomposes to the oracle's bits
// with residual and orthonormality inside checkEigen's tolerance; any other
// is ErrNotFinite.
func FuzzEigSym(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 64, 0, 0, 32, 0, 0, 64, 0})             // [[2,1],[1,2]]
	f.Add([]byte{2, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 64, 0})     // diag(2,2,0): repeated and zero
	f.Add([]byte{1, 0, 32, 0, 1, 0, 40, 0, 32, 0})             // near-scalar: off-diagonal 2^-53
	f.Add([]byte{1, 0, 0x80, 0})                               // NaN
	f.Add([]byte{1, 0, 32, 0, 0xff, 0x7f, 0, 0x01, 0x80, 0})   // ±Inf off and on the diagonal
	f.Add([]byte{23, 7, 9, 3, 250, 17, 40, 99, 200, 5, 61, 8}) // order 24, mostly zero
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		a, finite := fuzzSymmetric(data)
		ed, err := EigSym(a)
		if !finite {
			if !errors.Is(err, ErrNotFinite) {
				t.Fatalf("non-finite input: error %v, want ErrNotFinite", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("finite input %v: %v", a, err)
		}
		checkEigen(t, a, ed, 1e-9)
		if diff := diffEigenBits(a); diff != "" {
			t.Fatalf("%v: %s", a, diff)
		}
	})
}
