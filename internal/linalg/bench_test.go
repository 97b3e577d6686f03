package linalg

import (
	"math/rand"
	"testing"
)

func benchSym(n int) *Dense {
	rng := rand.New(rand.NewSource(99))
	return randSym(rng, n)
}

// covShaped returns an n x n sample covariance (3n points), the input the
// PCA fit hands the eigensolver: PSD with a decaying, well-separated
// spectrum, unlike benchSym's indefinite matrix.
func covShaped(n int) *Dense {
	rng := rand.New(rand.NewSource(99))
	return AtA(randDense(rng, 3*n, n)).Scale(1 / float64(3*n))
}

func BenchmarkEigSymQL64(b *testing.B) {
	a := benchSym(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigSymQL(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigSymQL166 is the solver at the size reduce_pipeline runs it.
func BenchmarkEigSymQL166(b *testing.B) {
	a := covShaped(166)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigSymQL(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigSymQL256(b *testing.B) {
	a := benchSym(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigSymQL(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigSymJacobi64(b *testing.B) {
	a := benchSym(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigSymJacobi(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randDense(rng, 128, 128)
	y := randDense(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

var benchSink float64

func benchDot(b *testing.B, d int) {
	rng := rand.New(rand.NewSource(7))
	x := randDense(rng, 2, d)
	u, v := x.RawRow(0), x.RawRow(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Dot(u, v)
	}
}

// The three dimensions of the kernel table in EXPERIMENTS.md: d=166
// (musk), d=64 (reduced), d=16 (deep-reduced).
func BenchmarkDot16(b *testing.B)  { benchDot(b, 16) }
func BenchmarkDot64(b *testing.B)  { benchDot(b, 64) }
func BenchmarkDot166(b *testing.B) { benchDot(b, 166) }

func BenchmarkDotGeneric166(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randDense(rng, 2, 166)
	u, v := x.RawRow(0), x.RawRow(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = dotGeneric(u, v)
	}
}

// benchMulT times MulTInto at one shape and reports the kernel's rate in
// GFMA/s (packing included), the number to hold against the core's FMA peak
// (2 ports × 4 lanes × clock).
func benchMulT(b *testing.B, m, n, k int) {
	rng := rand.New(rand.NewSource(8))
	x := randDense(rng, m, k)
	y := randDense(rng, n, k)
	dst := NewDense(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTInto(dst, x, y)
	}
	b.ReportMetric(float64(m)*float64(n)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFMA/s")
}

// The three shapes of EXPERIMENTS.md's kernel table: SearchSetBatch's
// query-block × data-tile at the reduced and the full dimensionality, and
// the benchmark harness's 512-query product over the whole Musk analogue.
func BenchmarkMulT128x2048x16(b *testing.B)  { benchMulT(b, 128, 2048, 16) }
func BenchmarkMulT128x2048x166(b *testing.B) { benchMulT(b, 128, 2048, 166) }
func BenchmarkMulT512x6598x166(b *testing.B) { benchMulT(b, 512, 6598, 166) }

// BenchmarkMulT512x166 against BenchmarkMulNaiveT512x166 is the blocked
// kernel's proof of win over the seed's ikj Mul on the same product shape.
func BenchmarkMulT512x166(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randDense(rng, 512, 166)
	y := randDense(rng, 512, 166)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulT(x, y)
	}
}

func BenchmarkMulNaiveT512x166(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randDense(rng, 512, 166)
	y := randDense(rng, 512, 166)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y.T())
	}
}

func BenchmarkAtA6598x166(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randDense(rng, 6598, 166)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AtA(x)
	}
}

func BenchmarkAtANaive6598x166(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randDense(rng, 6598, 166)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.T().Mul(x)
	}
}

var benchSinkIndex int

// benchFirstBelow times one full-length scan of an n-entry tile row in
// which nothing is below either bound — the common case the kernel exists
// for — and reports it through SetBytes as bytes of g consumed.
func benchFirstBelow(b *testing.B, n int, either, generic bool) {
	rng := rand.New(rand.NewSource(10))
	g, norms, bounds := randVec(rng, n), randVec(rng, n), make([]float64, n)
	for j := range norms {
		norms[j] = 40 + norms[j] // d2 ≈ 50 ± a few, bound 1
		bounds[j] = 1
	}
	if generic {
		saved := hasAVX2FMA
		hasAVX2FMA = false
		defer func() { hasAVX2FMA = saved }()
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if either {
			benchSinkIndex = FirstBelowEither(g, norms, bounds, 10, 1)
		} else {
			benchSinkIndex = FirstBelow(g, norms, 10, 1)
		}
	}
	if benchSinkIndex != n {
		b.Fatalf("scan stopped at %d of %d", benchSinkIndex, n)
	}
}

// 512 entries is a row of the self-join grid's tile, 2048 a row of the
// two-matrix schedule's; both rows sit in L1 here, where the kernel is
// compute-bound.
func BenchmarkFirstBelow512(b *testing.B)              { benchFirstBelow(b, 512, false, false) }
func BenchmarkFirstBelow2048(b *testing.B)             { benchFirstBelow(b, 2048, false, false) }
func BenchmarkFirstBelowGeneric512(b *testing.B)       { benchFirstBelow(b, 512, false, true) }
func BenchmarkFirstBelowGeneric2048(b *testing.B)      { benchFirstBelow(b, 2048, false, true) }
func BenchmarkFirstBelowEither512(b *testing.B)        { benchFirstBelow(b, 512, true, false) }
func BenchmarkFirstBelowEitherGeneric512(b *testing.B) { benchFirstBelow(b, 512, true, true) }
