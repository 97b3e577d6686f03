package repro

// One benchmark per table and figure of the paper (see DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured numbers). Each
// benchmark regenerates its artifact from scratch — data generation, PCA,
// coherence analysis and evaluation — and reports the headline quantity of
// that artifact as a benchmark metric, so
//
//	go test -bench=BenchmarkTable1 -benchmem
//
// both times the pipeline and prints the reproduced result.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/reduction"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(experiments.Config{})
		b.ReportMetric(res.Rows[0].OptimalAccuracy, "musk-opt-acc")
		b.ReportMetric(float64(res.Rows[0].OptimalDims), "musk-opt-dims")
		b.ReportMetric(res.Rows[2].OptimalAccuracy, "arrhythmia-opt-acc")
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1()
		b.ReportMetric(r.FactorB, "coherence-factor-B")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2()
		b.ReportMetric(r.ScaledDot, "scaled-dot")
	}
}

func benchScatter(b *testing.B, spec experiments.DatasetSpec, scaling reduction.Scaling) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.Scatter(spec, scaling)
		b.ReportMetric(r.Correlation, "eig-coh-pearson")
	}
}

func BenchmarkFigure3(b *testing.B) { // Musk scatter (normalized)
	benchScatter(b, experiments.Musk(1), reduction.ScalingStudentize)
}

func BenchmarkFigure4(b *testing.B) { // Musk coherence distribution
	for i := 0; i < b.N; i++ {
		r := experiments.CoherenceDistribution(experiments.Musk(1))
		b.ReportMetric(r.MeanLift(), "scaling-coherence-lift")
	}
}

func BenchmarkFigure5(b *testing.B) { // Musk quality curves
	for i := 0; i < b.N; i++ {
		r := experiments.ScalingQuality(experiments.Musk(1))
		opt := r.Curve("scaled").Optimal()
		b.ReportMetric(opt.Accuracy, "scaled-opt-acc")
		b.ReportMetric(float64(opt.Dims), "scaled-opt-dims")
	}
}

func BenchmarkFigure6(b *testing.B) { // Ionosphere scatter
	benchScatter(b, experiments.Ionosphere(1), reduction.ScalingStudentize)
}

func BenchmarkFigure7(b *testing.B) { // Ionosphere coherence distribution
	for i := 0; i < b.N; i++ {
		r := experiments.CoherenceDistribution(experiments.Ionosphere(1))
		b.ReportMetric(r.MeanLift(), "scaling-coherence-lift")
	}
}

func BenchmarkFigure8(b *testing.B) { // Ionosphere quality curves
	for i := 0; i < b.N; i++ {
		r := experiments.ScalingQuality(experiments.Ionosphere(1))
		opt := r.Curve("scaled").Optimal()
		b.ReportMetric(opt.Accuracy, "scaled-opt-acc")
		b.ReportMetric(float64(opt.Dims), "scaled-opt-dims")
	}
}

func BenchmarkFigure9(b *testing.B) { // Arrhythmia scatter
	benchScatter(b, experiments.Arrhythmia(1), reduction.ScalingStudentize)
}

func BenchmarkFigure10(b *testing.B) { // Arrhythmia coherence distribution
	for i := 0; i < b.N; i++ {
		r := experiments.CoherenceDistribution(experiments.Arrhythmia(1))
		b.ReportMetric(r.MeanLift(), "scaling-coherence-lift")
	}
}

func BenchmarkFigure11(b *testing.B) { // Arrhythmia quality curves
	for i := 0; i < b.N; i++ {
		r := experiments.ScalingQuality(experiments.Arrhythmia(1))
		opt := r.Curve("scaled").Optimal()
		b.ReportMetric(opt.Accuracy, "scaled-opt-acc")
		b.ReportMetric(float64(opt.Dims), "scaled-opt-dims")
	}
}

func BenchmarkFigure12(b *testing.B) { // Noisy A scatter (poor matching)
	benchScatter(b, experiments.NoisyA(1), reduction.ScalingNone)
}

func BenchmarkFigure13(b *testing.B) { // Noisy A ordering comparison
	for i := 0; i < b.N; i++ {
		r := experiments.OrderingQuality(experiments.NoisyA(1))
		coh := r.Curve("coherence ordering").Optimal()
		eig := r.Curve("eigenvalue ordering").Optimal()
		b.ReportMetric(coh.Accuracy, "coherence-opt-acc")
		b.ReportMetric(eig.Accuracy, "eigenvalue-opt-acc")
	}
}

func BenchmarkFigure14(b *testing.B) { // Noisy B scatter (poor matching)
	benchScatter(b, experiments.NoisyB(1), reduction.ScalingNone)
}

func BenchmarkFigure15(b *testing.B) { // Noisy B ordering comparison
	for i := 0; i < b.N; i++ {
		r := experiments.OrderingQuality(experiments.NoisyB(1))
		coh := r.Curve("coherence ordering").Optimal()
		b.ReportMetric(coh.Accuracy, "coherence-opt-acc")
		b.ReportMetric(float64(coh.Dims), "coherence-opt-dims")
	}
}

func BenchmarkUniformCoherence(b *testing.B) { // §3 closed form
	for i := 0; i < b.N; i++ {
		r := experiments.UniformCoherence(experiments.Config{})
		b.ReportMetric(r.AxisCoherence[len(r.AxisCoherence)-1], "axis-coherence")
	}
}

func BenchmarkRelativeContrast(b *testing.B) { // §1.1 contrast collapse
	for i := 0; i < b.N; i++ {
		r := experiments.ContrastSweep(experiments.Config{})
		b.ReportMetric(r.Contrast[len(r.Dims)-1][2], "L2-contrast-at-200d")
	}
}

func BenchmarkIndexPruning(b *testing.B) { // §1.1 pruning recovery
	for i := 0; i < b.N; i++ {
		r := experiments.IndexPruning(experiments.Config{})
		b.ReportMetric(r.Rows[0].KDTree, "kdtree-full-scanfrac")
		b.ReportMetric(r.Rows[1].KDTree, "kdtree-reduced-scanfrac")
	}
}

func BenchmarkLSHRecall(b *testing.B) { // recall-vs-work sweep headline
	for i := 0; i < b.N; i++ {
		r := experiments.LSHRecall(experiments.Config{})
		best, _ := r.Best(0.2)
		b.ReportMetric(best.Recall, "best-recall-under-20pct")
		b.ReportMetric(best.ScanFraction, "best-scanfrac")
		b.ReportMetric(r.Rows[len(r.Rows)/3-1].Recall, "raw-recall-max-probes")
	}
}

// lshBenchData generates an n-point latent-factor set at dimensionality d,
// the shapes the LSH index is benchmarked at: the aggressively reduced
// regime (16), a mid reduction (64), and the raw Musk dimensionality (166).
func lshBenchData(b *testing.B, n, d int) *Matrix {
	b.Helper()
	ds, err := Generate(LatentFactorConfig{
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
	cfg := LSHConfig{Tables: 8, Hashes: 10, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := BuildLSH(data, cfg)
		if ix.Dims() != d {
			b.Fatal("bad build")
		}
	}
}

func benchLSHQuery(b *testing.B, d int) {
	b.Helper()
	data := lshBenchData(b, 4000, d)
	ix := BuildLSH(data, LSHConfig{Tables: 8, Hashes: 10, Seed: 1})
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

func BenchmarkLocalReduction(b *testing.B) { // §3.1 extension
	for i := 0; i < b.N; i++ {
		r := experiments.LocalReduction(experiments.Config{})
		b.ReportMetric(r.LocalAccuracy, "local-acc")
		b.ReportMetric(r.GlobalAccuracy, "global-acc")
	}
}

func BenchmarkIGridComparison(b *testing.B) { // reference [3] companion
	for i := 0; i < b.N; i++ {
		r := experiments.IGridComparison(experiments.Config{})
		b.ReportMetric(r.ContrastRows[len(r.ContrastRows)-1].IGridSpread, "igrid-spread-200d")
		b.ReportMetric(r.ContrastRows[len(r.ContrastRows)-1].L2Spread, "l2-spread-200d")
	}
}

func BenchmarkImplicitDimensionality(b *testing.B) { // §3 companion (ref [15])
	for i := 0; i < b.N; i++ {
		r := experiments.ImplicitDimensionality(experiments.Config{})
		b.ReportMetric(r.Rows[0].D2, "musk-D2")
		b.ReportMetric(r.Rows[3].D2, "uniform10-D2")
	}
}

func BenchmarkScalingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ScalingAblation(experiments.Config{})
		b.ReportMetric(r.Rows[0].CoherenceLift, "musk-coherence-lift")
	}
}

func BenchmarkSelectionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SelectionAblation(experiments.Config{})
		b.ReportMetric(r.Rows[len(r.Rows)-3].Accuracy, "noisyA-coherence-acc")
	}
}

func BenchmarkNoiseAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NoiseAblation(experiments.Config{})
		b.ReportMetric(r.Rows[len(r.Rows)-1].Benefit, "benefit-at-max-noise")
	}
}

func BenchmarkMetricAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.MetricAblation(experiments.Config{})
		b.ReportMetric(r.Rows[2].Reduced, "L2-reduced-acc")
	}
}
