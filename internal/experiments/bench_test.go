package experiments

// One benchmark per table and figure of the paper (see DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured numbers). Each
// benchmark regenerates its artifact from scratch — data generation, PCA,
// coherence analysis and evaluation — and reports the headline quantity of
// that artifact as a benchmark metric, so
//
//	go test -bench=BenchmarkTable1 -benchmem ./internal/experiments/
//
// both times the pipeline and prints the reproduced result.

import (
	"testing"

	"repro/internal/reduction"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := Table1(Config{})
		b.ReportMetric(res.Rows[0].OptimalAccuracy, "musk-opt-acc")
		b.ReportMetric(float64(res.Rows[0].OptimalDims), "musk-opt-dims")
		b.ReportMetric(res.Rows[2].OptimalAccuracy, "arrhythmia-opt-acc")
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Figure1()
		b.ReportMetric(r.FactorB, "coherence-factor-B")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Figure2()
		b.ReportMetric(r.ScaledDot, "scaled-dot")
	}
}

func benchScatter(b *testing.B, spec DatasetSpec, scaling reduction.Scaling) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := Scatter(spec, scaling)
		b.ReportMetric(r.Correlation, "eig-coh-pearson")
	}
}

func BenchmarkFigure3(b *testing.B) { // Musk scatter (normalized)
	benchScatter(b, Musk(1), reduction.ScalingStudentize)
}

func BenchmarkFigure4(b *testing.B) { // Musk coherence distribution
	for i := 0; i < b.N; i++ {
		r := CoherenceDistribution(Musk(1))
		b.ReportMetric(r.MeanLift(), "scaling-coherence-lift")
	}
}

func BenchmarkFigure5(b *testing.B) { // Musk quality curves
	for i := 0; i < b.N; i++ {
		r := ScalingQuality(Musk(1))
		opt := r.Curve("scaled").Optimal()
		b.ReportMetric(opt.Accuracy, "scaled-opt-acc")
		b.ReportMetric(float64(opt.Dims), "scaled-opt-dims")
	}
}

func BenchmarkFigure6(b *testing.B) { // Ionosphere scatter
	benchScatter(b, Ionosphere(1), reduction.ScalingStudentize)
}

func BenchmarkFigure7(b *testing.B) { // Ionosphere coherence distribution
	for i := 0; i < b.N; i++ {
		r := CoherenceDistribution(Ionosphere(1))
		b.ReportMetric(r.MeanLift(), "scaling-coherence-lift")
	}
}

func BenchmarkFigure8(b *testing.B) { // Ionosphere quality curves
	for i := 0; i < b.N; i++ {
		r := ScalingQuality(Ionosphere(1))
		opt := r.Curve("scaled").Optimal()
		b.ReportMetric(opt.Accuracy, "scaled-opt-acc")
		b.ReportMetric(float64(opt.Dims), "scaled-opt-dims")
	}
}

func BenchmarkFigure9(b *testing.B) { // Arrhythmia scatter
	benchScatter(b, Arrhythmia(1), reduction.ScalingStudentize)
}

func BenchmarkFigure10(b *testing.B) { // Arrhythmia coherence distribution
	for i := 0; i < b.N; i++ {
		r := CoherenceDistribution(Arrhythmia(1))
		b.ReportMetric(r.MeanLift(), "scaling-coherence-lift")
	}
}

func BenchmarkFigure11(b *testing.B) { // Arrhythmia quality curves
	for i := 0; i < b.N; i++ {
		r := ScalingQuality(Arrhythmia(1))
		opt := r.Curve("scaled").Optimal()
		b.ReportMetric(opt.Accuracy, "scaled-opt-acc")
		b.ReportMetric(float64(opt.Dims), "scaled-opt-dims")
	}
}

func BenchmarkFigure12(b *testing.B) { // Noisy A scatter (poor matching)
	benchScatter(b, NoisyA(1), reduction.ScalingNone)
}

func BenchmarkFigure13(b *testing.B) { // Noisy A ordering comparison
	for i := 0; i < b.N; i++ {
		r := OrderingQuality(NoisyA(1))
		coh := r.Curve("coherence ordering").Optimal()
		eig := r.Curve("eigenvalue ordering").Optimal()
		b.ReportMetric(coh.Accuracy, "coherence-opt-acc")
		b.ReportMetric(eig.Accuracy, "eigenvalue-opt-acc")
	}
}

func BenchmarkFigure14(b *testing.B) { // Noisy B scatter (poor matching)
	benchScatter(b, NoisyB(1), reduction.ScalingNone)
}

func BenchmarkFigure15(b *testing.B) { // Noisy B ordering comparison
	for i := 0; i < b.N; i++ {
		r := OrderingQuality(NoisyB(1))
		coh := r.Curve("coherence ordering").Optimal()
		b.ReportMetric(coh.Accuracy, "coherence-opt-acc")
		b.ReportMetric(float64(coh.Dims), "coherence-opt-dims")
	}
}

func BenchmarkUniformCoherence(b *testing.B) { // §3 closed form
	for i := 0; i < b.N; i++ {
		r := UniformCoherence(Config{})
		b.ReportMetric(r.AxisCoherence[len(r.AxisCoherence)-1], "axis-coherence")
	}
}

func BenchmarkRelativeContrast(b *testing.B) { // §1.1 contrast collapse
	for i := 0; i < b.N; i++ {
		r := ContrastSweep(Config{})
		b.ReportMetric(r.Contrast[len(r.Dims)-1][2], "L2-contrast-at-200d")
	}
}

func BenchmarkIndexPruning(b *testing.B) { // §1.1 pruning recovery
	for i := 0; i < b.N; i++ {
		r := IndexPruning(Config{})
		b.ReportMetric(r.Rows[0].KDTree, "kdtree-full-scanfrac")
		b.ReportMetric(r.Rows[1].KDTree, "kdtree-reduced-scanfrac")
	}
}

func BenchmarkLSHRecall(b *testing.B) { // recall-vs-work sweep headline
	for i := 0; i < b.N; i++ {
		r := LSHRecall(Config{})
		best, _ := r.Best(0.2)
		b.ReportMetric(best.Recall, "best-recall-under-20pct")
		b.ReportMetric(best.ScanFraction, "best-scanfrac")
		b.ReportMetric(r.Rows[len(r.Rows)/3-1].Recall, "raw-recall-max-probes")
	}
}

func BenchmarkLocalReduction(b *testing.B) { // §3.1 extension
	for i := 0; i < b.N; i++ {
		r := LocalReduction(Config{})
		b.ReportMetric(r.LocalAccuracy, "local-acc")
		b.ReportMetric(r.GlobalAccuracy, "global-acc")
	}
}

func BenchmarkIGridComparison(b *testing.B) { // reference [3] companion
	for i := 0; i < b.N; i++ {
		r := IGridComparison(Config{})
		b.ReportMetric(r.ContrastRows[len(r.ContrastRows)-1].IGridSpread, "igrid-spread-200d")
		b.ReportMetric(r.ContrastRows[len(r.ContrastRows)-1].L2Spread, "l2-spread-200d")
	}
}

func BenchmarkImplicitDimensionality(b *testing.B) { // §3 companion (ref [15])
	for i := 0; i < b.N; i++ {
		r := ImplicitDimensionality(Config{})
		b.ReportMetric(r.Rows[0].D2, "musk-D2")
		b.ReportMetric(r.Rows[3].D2, "uniform10-D2")
	}
}

func BenchmarkScalingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := ScalingAblation(Config{})
		b.ReportMetric(r.Rows[0].CoherenceLift, "musk-coherence-lift")
	}
}

func BenchmarkSelectionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := SelectionAblation(Config{})
		b.ReportMetric(r.Rows[len(r.Rows)-3].Accuracy, "noisyA-coherence-acc")
	}
}

func BenchmarkNoiseAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := NoiseAblation(Config{})
		b.ReportMetric(r.Rows[len(r.Rows)-1].Benefit, "benefit-at-max-noise")
	}
}

func BenchmarkMetricAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := MetricAblation(Config{})
		b.ReportMetric(r.Rows[2].Reduced, "L2-reduced-acc")
	}
}
