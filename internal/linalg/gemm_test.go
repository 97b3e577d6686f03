package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// withGeneric runs fn with the assembly kernels disabled, so every test
// using it covers the portable path even on AVX2 hardware.
func withGeneric(fn func()) {
	saved := hasAVX2FMA
	hasAVX2FMA = false
	defer func() { hasAVX2FMA = saved }()
	fn()
}

// withWorkers runs fn at the given GOMAXPROCS so parallel panels are
// exercised even on single-core machines.
func withWorkers(n int, fn func()) {
	saved := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(saved)
	fn()
}

func TestDotKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 100, 166, 255, 256, 1000} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		fast := Dot(a, b)
		var slow float64
		withGeneric(func() { slow = Dot(a, b) })
		naive := 0.0
		for i := range a {
			naive += a[i] * b[i]
		}
		tol := 1e-12 * (1 + math.Abs(naive))
		if math.Abs(fast-naive) > tol {
			t.Fatalf("n=%d: dispatched Dot %v, naive %v", n, fast, naive)
		}
		if math.Abs(slow-naive) > tol {
			t.Fatalf("n=%d: generic Dot %v, naive %v", n, slow, naive)
		}
	}
}

func TestDotSpecialValues(t *testing.T) {
	a := []float64{1, math.Inf(1), 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	if got := Dot(a, b); !math.IsInf(got, 1) {
		t.Fatalf("Dot with +Inf = %v", got)
	}
	a[1] = math.NaN()
	if got := Dot(a, b); !math.IsNaN(got) {
		t.Fatalf("Dot with NaN = %v", got)
	}
}

func TestAxpyKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 166} {
		x := make([]float64, n)
		y0 := make([]float64, n)
		for i := range x {
			x[i], y0[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		const alpha = 1.7
		fast := append([]float64(nil), y0...)
		Axpy(alpha, x, fast)
		slow := append([]float64(nil), y0...)
		withGeneric(func() { Axpy(alpha, x, slow) })
		for i := range fast {
			want := y0[i] + alpha*x[i]
			if math.Abs(fast[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d: fast Axpy[%d] = %v, want %v", n, i, fast[i], want)
			}
			if math.Abs(slow[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d: generic Axpy[%d] = %v, want %v", n, i, slow[i], want)
			}
		}
	}
}

func TestMulTMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {17, 9, 166}, {64, 64, 16},
		{200, 130, 33}, {5, 300, 2}, {130, 1, 40},
	}
	for _, c := range cases {
		a := randDense(rng, c.m, c.k)
		b := randDense(rng, c.n, c.k)
		got := MulT(a, b)
		want := a.Mul(b.T())
		if !got.Equal(want, 1e-10) {
			t.Fatalf("MulT(%dx%d, %dx%d) differs from Mul(a, bᵀ)", c.m, c.k, c.n, c.k)
		}
		withWorkers(4, func() {
			withGeneric(func() {
				if !MulT(a, b).Equal(want, 1e-10) {
					t.Fatalf("parallel generic MulT(%dx%d, %dx%d) differs", c.m, c.k, c.n, c.k)
				}
			})
		})
	}
}

func TestMulTIntoValidatesAndReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := randDense(rng, 6, 5)
	b := randDense(rng, 4, 5)
	dst := NewDense(6, 4)
	if got := MulTInto(dst, a, b); got != dst {
		t.Fatal("MulTInto must return dst")
	}
	// Reuse must fully overwrite the previous contents.
	first := dst.Clone()
	MulTInto(dst, a, b)
	if !dst.Equal(first, 0) {
		t.Fatal("MulTInto not idempotent on reuse")
	}
	for name, fn := range map[string]func(){
		"inner mismatch": func() { MulT(randDense(rng, 3, 4), randDense(rng, 3, 5)) },
		"bad dst rows":   func() { MulTInto(NewDense(5, 4), a, b) },
		"bad dst cols":   func() { MulTInto(NewDense(6, 5), a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAtAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct{ n, k int }{
		{1, 1}, {2, 3}, {50, 7}, {64, 64}, {300, 17}, {129, 166},
	} {
		a := randDense(rng, c.n, c.k)
		got := AtA(a)
		want := a.T().Mul(a)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("AtA(%dx%d) differs from aᵀ·a", c.n, c.k)
		}
		if !got.IsSymmetric(0) {
			t.Fatalf("AtA(%dx%d) not exactly symmetric", c.n, c.k)
		}
		withWorkers(4, func() {
			if !AtA(a).Equal(want, 1e-9) {
				t.Fatalf("parallel AtA(%dx%d) differs", c.n, c.k)
			}
		})
	}
}

func TestAtAZeroHeavyRows(t *testing.T) {
	// The j-loop skips zero leading elements; make sure sparsity doesn't
	// drop contributions.
	a := FromRows([][]float64{
		{0, 0, 2},
		{1, 0, 0},
		{0, 3, 1},
	})
	want := a.T().Mul(a)
	if got := AtA(a); !got.Equal(want, 1e-14) {
		t.Fatalf("AtA on sparse rows = %v, want %v", got, want)
	}
}

func TestRowNormsSq(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randDense(rng, 20, 166)
	norms := RowNormsSq(m)
	for i := 0; i < 20; i++ {
		row := m.RawRow(i)
		want := 0.0
		for _, v := range row {
			want += v * v
		}
		if math.Abs(norms[i]-want) > 1e-10*(1+want) {
			t.Fatalf("RowNormsSq[%d] = %v, want %v", i, norms[i], want)
		}
	}
}

func TestRowSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := randDense(rng, 10, 4)
	v := m.RowSlice(3, 7)
	if r, c := v.Dims(); r != 4 || c != 4 {
		t.Fatalf("RowSlice dims %dx%d", r, c)
	}
	for i := 0; i < 4; i++ {
		if !VecEqual(v.RawRow(i), m.RawRow(3+i), 0) {
			t.Fatalf("RowSlice row %d differs", i)
		}
	}
	// Shared storage: writes through the view land in the parent.
	v.Set(0, 0, 99)
	if m.At(3, 0) != 99 {
		t.Fatal("RowSlice does not share storage")
	}
	for name, fn := range map[string]func(){
		"lo<0":   func() { m.RowSlice(-1, 2) },
		"hi>n":   func() { m.RowSlice(0, 11) },
		"lo>=hi": func() { m.RowSlice(5, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// ataOracle is AtA as it was before ataPanel blocked four rows per pass:
// the same worker split and worker-order reduction, and one suffix axpy per
// (row, non-zero leading element), frozen here. AtA promises the same
// floating-point operations per output element in the same order, so its
// result must match this bit for bit at every GOMAXPROCS; do not "tidy"
// this function.
func ataOracle(a *Dense) *Dense {
	n, k := a.rows, a.cols
	out := NewDense(k, k)
	panel := func(acc []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.data[i*k : (i+1)*k]
			for j, v := range row {
				if v == 0 {
					continue
				}
				axpyUnitary(v, row[j:], acc[j*k+j:(j+1)*k])
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if maxW := n / 64; workers > maxW {
		workers = maxW
	}
	if workers <= 1 {
		panel(out.data, 0, n)
	} else {
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, n)
			if lo >= hi {
				break
			}
			buf := make([]float64, k*k)
			panel(buf, lo, hi)
			for i := 0; i < k; i++ {
				Axpy(1, buf[i*k+i:(i+1)*k], out.data[i*k+i:(i+1)*k])
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out.data[j*k+i] = out.data[i*k+j]
		}
	}
	return out
}

// diffAtABits compares AtA(a) with the oracle at the current GOMAXPROCS and
// describes the first entry whose bits differ, or returns "".
func diffAtABits(a *Dense) string {
	got, want := AtA(a), ataOracle(a)
	for i, v := range got.data {
		if w := want.data[i]; math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Sprintf("(%d,%d) = %v (%#x), oracle %v (%#x)", i/a.cols, i%a.cols,
				v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
	return ""
}

// ataProcs are the worker counts AtA's bits are checked at: one core, the
// smallest split, an odd split, and more workers than most shapes have
// 64-row chunks for.
var ataProcs = []int{1, 2, 3, 8}

// TestAtABitIdenticalToRowAxpy holds AtA to ataOracle: shapes on both sides
// of the 64-row worker floor, row counts off the four-row block, widths
// below, at and just past asmMinLen, and the paper's 6598 × 166; entries
// with ±0, subnormals, all-zero rows and Inf/NaN.
func TestAtABitIdenticalToRowAxpy(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3e-310,
		math.Inf(1), math.Inf(-1), math.NaN()}
	fill := func(rng *rand.Rand, n, k int, specials bool) *Dense {
		a := randDense(rng, n, k)
		for i := 0; i < n; i++ {
			row := a.RawRow(i)
			if i%7 == 3 {
				clear(row)
				continue
			}
			for j := range row {
				switch u := rng.Float64(); {
				case u < 0.1:
					row[j] = 0
				case specials && u < 0.13:
					row[j] = special[rng.Intn(len(special))]
				}
			}
		}
		return a
	}
	rng := rand.New(rand.NewSource(97))
	for _, c := range []struct{ n, k int }{
		{1, 1}, {3, 5}, {5, 16}, {63, 17}, {64, 15}, {130, 7}, {131, 16}, {257, 17},
		{403, 40}, {6598, 166},
	} {
		for _, specials := range []bool{false, true} {
			a := fill(rng, c.n, c.k, specials)
			for _, p := range ataProcs {
				withWorkers(p, func() {
					if diff := diffAtABits(a); diff != "" {
						t.Errorf("%dx%d specials=%v GOMAXPROCS=%d: %s", c.n, c.k, specials, p, diff)
					}
				})
			}
		}
	}
}

// diffAtAPaths runs diffAtABits on every AtA implementation this CPU can
// run — the ZMM syrk kernel, ataPanel over the AVX2 axpys and ataPanel
// over the portable ones — each against the oracle under the same dispatch,
// and names the first path and entry that differ, or returns "".
func diffAtAPaths(a *Dense) string {
	saved2, saved512 := hasAVX2FMA, hasAVX512
	defer func() { hasAVX2FMA, hasAVX512 = saved2, saved512 }()
	for _, p := range mulTPaths {
		if p.avx2 && !saved2 || p.avx512 && !saved512 {
			continue
		}
		hasAVX2FMA, hasAVX512 = p.avx2, p.avx512
		if diff := diffAtABits(a); diff != "" {
			return p.name + ": " + diff
		}
		// A worker's pass writes the upper triangle and nothing else.
		k := a.cols
		acc := make([]float64, k*k)
		for i := range acc {
			if i/k > i%k {
				acc[i] = 42
			}
		}
		ataRows(a, acc, 0, a.rows)
		for i, v := range acc {
			if i/k > i%k && v != 42 {
				return fmt.Sprintf("%s: worker pass wrote (%d,%d) below the diagonal", p.name, i/k, i%k)
			}
		}
	}
	return ""
}

// TestAtAPathsAgree forces each AtA implementation over the syrk kernel's
// edges: widths below asmMinLen (no kernel at all), at and past it, and
// the paper's 166, so the fused/unfused row split falls at every position
// of the eight-row tile; row counts off the four-row block and off the
// 256-row slab; rows that are mostly zero, with a zero among every tile's
// eight leads; and GOMAXPROCS 1, 2, 3 and 8.
func TestAtAPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for _, k := range []int{7, 15, 16, 17, 23, 31, 40, 166} {
		for _, n := range []int{1, 5, 67, 258, 531} {
			a := randDense(rng, n, k)
			for i := range a.data {
				switch u := rng.Intn(16); {
				case u < 6: // zero-heavy: more than a third of the entries
					a.data[i] = 0
				case u == 6:
					a.data[i] = mulTValue(rng)
				}
			}
			for _, p := range ataProcs {
				withWorkers(p, func() {
					if diff := diffAtAPaths(a); diff != "" {
						t.Fatalf("%dx%d GOMAXPROCS=%d: %s", n, k, p, diff)
					}
				})
			}
		}
	}
}

// FuzzAtA holds every AtA implementation (diffAtAPaths) to the oracle.
// Two bytes pick the shape (up to 400 × 40), one the worker count, and
// each entry takes three bytes: an int16 mantissa m and a shift s give
// m/8192 · 2^−5s, so zeros, repeated values and subnormals are all a few
// byte flips away, and the three mantissas nearest overflow stand for NaN,
// +Inf and −Inf, as in fuzzSymmetric. Missing bytes read as zero, so short
// inputs are sparse matrices.
func FuzzAtA(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 4, 1, 0, 64, 0, 0, 0x80, 0, 0, 32, 0})
	f.Add([]byte{200, 16, 2, 0xff, 0x7f, 0, 0x01, 0x80, 0, 7, 9, 47, 250, 17, 40})
	f.Add([]byte{255, 23, 3, 99, 200, 5, 61, 8, 12, 0, 0, 0, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		n := 1 + int(data[0])%300
		if data[0] >= 200 {
			n += 100 // reach the three- and four-worker splits
		}
		k, procs := 1+int(data[1])%40, ataProcs[int(data[2])%len(ataProcs)]
		data = data[3:]
		a := NewDense(n, k)
		for i := range a.data {
			var b [3]byte
			data = data[copy(b[:], data):]
			m := int16(binary.LittleEndian.Uint16(b[:2]))
			v := math.Ldexp(float64(m)/8192, -5*int(b[2]))
			switch m {
			case math.MinInt16:
				v = math.NaN()
			case math.MaxInt16:
				v = math.Inf(1)
			case math.MinInt16 + 1:
				v = math.Inf(-1)
			}
			a.data[i] = v
		}
		withWorkers(procs, func() {
			if diff := diffAtAPaths(a); diff != "" {
				t.Fatalf("%dx%d GOMAXPROCS=%d: %s", n, k, procs, diff)
			}
		})
	})
}
