package lsh

import (
	"testing"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
)

// lshBenchData generates an n-point latent-factor set at dimensionality d,
// the shapes the LSH index is benchmarked at: the aggressively reduced
// regime (16), a mid reduction (64), and the raw Musk dimensionality (166).
func lshBenchData(b *testing.B, n, d int) *linalg.Dense {
	b.Helper()
	ds, err := synthetic.Generate(synthetic.LatentFactorConfig{
		Name: "lsh-bench", N: n, Dims: d, Classes: 4,
		ConceptStrengths: []float64{6, 4, 3, 2}, ClassSeparation: 1.5,
		NoiseStdDev: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds.X
}

func benchLSHBuild(b *testing.B, d int) {
	b.Helper()
	data := lshBenchData(b, 4000, d)
	cfg := Config{Tables: 8, Hashes: 10, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := Build(data, cfg)
		if ix.Dims() != d {
			b.Fatal("bad build")
		}
	}
}

func benchLSHQuery(b *testing.B, d int) {
	b.Helper()
	data := lshBenchData(b, 4000, d)
	ix := Build(data, Config{Tables: 8, Hashes: 10, Seed: 1})
	queries := data.SliceRows([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, stats := ix.KNNApproxSet(queries, 10, 16)
		if len(res) != queries.Rows() {
			b.Fatal("bad query batch")
		}
		if i == 0 {
			b.ReportMetric(float64(stats.CandidateSize)/float64(queries.Rows()), "candidates/query")
		}
	}
}

func BenchmarkLSHBuildD16(b *testing.B)  { benchLSHBuild(b, 16) }
func BenchmarkLSHBuildD64(b *testing.B)  { benchLSHBuild(b, 64) }
func BenchmarkLSHBuildD166(b *testing.B) { benchLSHBuild(b, 166) }
func BenchmarkLSHQueryD16(b *testing.B)  { benchLSHQuery(b, 16) }
func BenchmarkLSHQueryD64(b *testing.B)  { benchLSHQuery(b, 64) }
func BenchmarkLSHQueryD166(b *testing.B) { benchLSHQuery(b, 166) }
