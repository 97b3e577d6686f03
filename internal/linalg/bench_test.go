package linalg

import (
	"fmt"
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
// (FMA ports × lanes × clock: 4 lanes per YMM, 8 per ZMM).
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

// The two shapes reduce_pipeline runs most: core.AnalyzeBasis's 256-row
// block against the 166 directions, and a 256 × 256 tile of the k = 3
// self-join at the 16 retained dimensions.
func BenchmarkMulT256x166x166(b *testing.B) { benchMulT(b, 256, 166, 166) }
func BenchmarkMulT256x256x16(b *testing.B)  { benchMulT(b, 256, 256, 16) }

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

// BenchmarkAtA6598x166 is the covariance's product at the paper's shape;
// GFMA/s counts the upper triangle's n·k(k+1)/2 multiply-adds.
func BenchmarkAtA6598x166(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randDense(rng, 6598, 166)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AtA(x)
	}
	b.ReportMetric(6598*166*167/2*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFMA/s")
}

// BenchmarkStrip8x256x16 times SelfJoin.Strip at the self-join's shape in
// reduce_pipeline — eight rows against a 256-column tile at 16 dimensions,
// bounds that mark nothing — and reports its product rate in GFMA/s, the
// mask test included.
func BenchmarkStrip8x256x16(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randDense(rng, 512, 16)
	norms, bounds := MulTRowNormsSq(x), make([]float64, 512)
	for i := range bounds {
		bounds[i] = -1
	}
	sj := NewSelfJoin(x)
	g, mask := make([]float64, StripRows*256), make([]uint64, StripRows*StripMaskWords(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sj.Strip(g, mask, 8*(i%32), StripRows, 256, 256, norms, bounds)
	}
	b.ReportMetric(8*256*16*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFMA/s")
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
// which nothing is below the bound — the common case the kernel exists
// for — and reports it through SetBytes as bytes of g consumed.
func benchFirstBelow(b *testing.B, n int, generic bool) {
	rng := rand.New(rand.NewSource(10))
	g, norms := randVec(rng, n), randVec(rng, n)
	for j := range norms {
		norms[j] = 40 + norms[j] // d2 ≈ 50 ± a few, bound 1
	}
	if generic {
		saved := hasAVX2FMA
		hasAVX2FMA = false
		defer func() { hasAVX2FMA = saved }()
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkIndex = FirstBelow(g, norms, 10, 1)
	}
	if benchSinkIndex != n {
		b.Fatalf("scan stopped at %d of %d", benchSinkIndex, n)
	}
}

// 2048 entries is a row of the two-matrix schedule's tile; both lengths sit
// in L1 here, where the kernel is compute-bound.
func BenchmarkFirstBelow512(b *testing.B)         { benchFirstBelow(b, 512, false) }
func BenchmarkFirstBelow2048(b *testing.B)        { benchFirstBelow(b, 2048, false) }
func BenchmarkFirstBelowGeneric512(b *testing.B)  { benchFirstBelow(b, 512, true) }
func BenchmarkFirstBelowGeneric2048(b *testing.B) { benchFirstBelow(b, 2048, true) }

// BenchmarkPrefixBounds times PrefixBounds at P = 64, the store's prefix
// width, on each path of prefixPaths, in ns per row and in GB/s of the 76
// bytes a row carries (64 plane bytes, snorm, csum and csumSuf). rows=256
// is one block, which stays in L1; rows=250000 is a 19 MB plane swept in
// 256-row blocks as the store sweeps it. The floor sub-benchmark is the
// bound the kernels are judged against: one core reading one word of each
// 64-byte line of the same bytes.
func BenchmarkPrefixBounds(b *testing.B) {
	const P, block = 64, 256
	for _, n := range []int{block, 250000} {
		blk := randPrefixBlock(rand.New(rand.NewSource(113)), P, n)
		lbs, mask := make([]float64, block), make([]uint64, block/64)
		rowBytes := float64(P + 4 + 4 + 4)
		report := func(b *testing.B) {
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*n)
			b.ReportMetric(ns, "ns/row")
			b.ReportMetric(rowBytes/ns, "GB/s")
		}
		for _, p := range prefixPaths {
			b.Run(fmt.Sprintf("rows=%d/%s", n, p.name), func(b *testing.B) {
				if lacks := p.lacks(); lacks != "" {
					b.Skipf("this CPU lacks %s", lacks)
				}
				p.run(func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for lo := 0; lo < n; lo += block {
							hi := min(lo+block, n)
							PrefixBounds(&blk.q, blk.rows[lo*P:hi*P], blk.snorm[lo:hi], blk.csum[lo:hi], blk.csumSuf[lo:hi],
								0, lbs[:hi-lo], mask)
						}
					}
				})
				report(b)
			})
		}
		b.Run(fmt.Sprintf("rows=%d/floor", n), func(b *testing.B) {
			buf := make([]uint64, n*int(rowBytes)/8)
			for i := range buf {
				buf[i] = uint64(i)
			}
			var sum uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < len(buf); j += 8 {
					sum += buf[j]
				}
			}
			report(b)
			benchSink = float64(sum)
		})
	}
}
