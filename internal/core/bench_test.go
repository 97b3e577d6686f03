package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/stats"
)

func BenchmarkCoherenceFactor256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 256)
	e := make([]float64, 256)
	for j := range x {
		x[j] = rng.NormFloat64()
		e[j] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoherenceFactor(x, e)
	}
}

func BenchmarkAnalyzeBasis500x64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := linalg.NewDense(500, 64)
	for i := 0; i < 500; i++ {
		for j := 0; j < 64; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	basis := linalg.Identity(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeBasis(x, basis, true)
	}
}

// BenchmarkAnalyzeBasis6598x166 is AnalyzeBasis at reduce_pipeline's shape:
// 6598 centred Musk-like rows against all 166 directions of their PCA
// basis.
func BenchmarkAnalyzeBasis6598x166(b *testing.B) {
	gen := synthetic.MuskLikeConfig(1)
	gen.N = 6598
	ds := synthetic.MustGenerate(gen)
	work, _ := stats.Center(ds.X)
	ed, err := linalg.EigSym(stats.CovarianceMatrix(work))
	if err != nil {
		b.Fatal(err)
	}
	_, vecs := ed.Descending()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeBasis(work, vecs, false)
	}
}
