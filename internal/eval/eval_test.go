package eval

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dataset/synthetic"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/reduction"
)

func TestPredictionAccuracyPerfectClusters(t *testing.T) {
	// Two tight, far-apart clusters: every neighbor shares the class.
	x := linalg.FromRows([][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},
		{100, 100}, {100.1, 100}, {100, 100.1}, {100.1, 100.1},
	})
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	if got := PredictionAccuracy(x, labels, 3, knn.Euclidean{}); got != 1 {
		t.Fatalf("accuracy = %v, want 1", got)
	}
}

func TestPredictionAccuracyLabelIndependence(t *testing.T) {
	// Labels unrelated to geometry: accuracy near the chance rate 0.5.
	ds := synthetic.UniformCube("u", 400, 5, 1)
	got := PredictionAccuracy(ds.X, ds.Labels, 3, knn.Euclidean{})
	if math.Abs(got-0.5) > 0.07 {
		t.Fatalf("chance accuracy = %v, want ≈0.5", got)
	}
}

func TestPredictionAccuracyHandComputed(t *testing.T) {
	// 1-D points 0,1,2,10 with labels a,a,b,b and k=1:
	// 0→1(a,match) 1→0(a,match) 2→1(a,miss) 10→2(b,match) = 3/4.
	x := linalg.FromRows([][]float64{{0}, {1}, {2}, {10}})
	labels := []int{0, 0, 1, 1}
	if got := PredictionAccuracy(x, labels, 1, knn.Euclidean{}); got != 0.75 {
		t.Fatalf("accuracy = %v, want 0.75", got)
	}
}

// scalarAccuracy is the measurement as the paper states it, one scalar
// leave-one-out scan per point: the reference PredictionAccuracy's single
// batch search path is held to.
func scalarAccuracy(x *linalg.Dense, labels []int, k int, m knn.Metric) float64 {
	matches, total := 0, 0
	for i := 0; i < x.Rows(); i++ {
		for _, nb := range knn.Search(x, x.RawRow(i), k, m, i) {
			total++
			if labels[nb.Index] == labels[i] {
				matches++
			}
		}
	}
	return float64(matches) / float64(total)
}

func TestPredictionAccuracyEqualsScalarReference(t *testing.T) {
	latent := synthetic.MustGenerate(synthetic.LatentFactorConfig{
		Name: "ref", N: 500, Dims: 24, Classes: 3,
		ConceptStrengths: []float64{5, 3}, ClassSeparation: 1, NoiseStdDev: 0.6, Seed: 13,
	})
	// A lattice with labels by position: neighbor ties everywhere, so a
	// differently broken tie would show up in the count.
	grid := linalg.NewDense(144, 2)
	gridLabels := make([]int, 144)
	for i := 0; i < 144; i++ {
		grid.Set(i, 0, float64(i%12))
		grid.Set(i, 1, float64(i/12))
		gridLabels[i] = (i%12 + i/12) % 3
	}
	for _, c := range []struct {
		name   string
		x      *linalg.Dense
		labels []int
	}{
		{"latent", latent.X, latent.Labels},
		{"grid", grid, gridLabels},
	} {
		for _, k := range []int{1, 3, 10} {
			for _, m := range []knn.Metric{knn.Euclidean{}, knn.SquaredEuclidean{}, knn.Manhattan{}} {
				got, want := PredictionAccuracy(c.x, c.labels, k, m), scalarAccuracy(c.x, c.labels, k, m)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s k=%d %s: accuracy %v, scalar reference %v", c.name, k, m.Name(), got, want)
				}
			}
		}
	}
}

func TestPredictionAccuracyPanics(t *testing.T) {
	x := linalg.NewDense(3, 2)
	for name, fn := range map[string]func(){
		"label mismatch": func() { PredictionAccuracy(x, []int{0}, 1, knn.Euclidean{}) },
		"k zero":         func() { PredictionAccuracy(x, []int{0, 0, 0}, 0, knn.Euclidean{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestDatasetAccuracyMatchesExplicit(t *testing.T) {
	ds := synthetic.UniformCube("u", 60, 4, 2)
	want := PredictionAccuracy(ds.X, ds.Labels, PaperK, knn.Euclidean{})
	if got := DatasetAccuracy(ds); got != want {
		t.Fatalf("DatasetAccuracy = %v, want %v", got, want)
	}
}

func TestNeighborPrecisionIdentity(t *testing.T) {
	ds := synthetic.UniformCube("u", 80, 6, 3)
	if got := NeighborPrecision(ds.X, ds.X, 3, knn.Euclidean{}); got != 1 {
		t.Fatalf("self precision = %v", got)
	}
}

func TestNeighborPrecisionDropsUnderProjection(t *testing.T) {
	// Projecting 20-D uniform data to 1-D scrambles neighborhoods.
	ds := synthetic.UniformCube("u", 200, 20, 4)
	p, err := reduction.Fit(ds.X, reduction.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reduced := p.Transform(ds.X, []int{0})
	got := NeighborPrecision(ds.X, reduced, 3, knn.Euclidean{})
	if got > 0.5 {
		t.Fatalf("precision after brutal projection = %v, expected low", got)
	}
}

func TestNeighborPrecisionRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NeighborPrecision(linalg.NewDense(3, 2), linalg.NewDense(4, 2), 1, knn.Euclidean{})
}

func TestCurveOptimal(t *testing.T) {
	c := Curve{Points: []CurvePoint{
		{Dims: 1, Accuracy: 0.5},
		{Dims: 5, Accuracy: 0.9},
		{Dims: 10, Accuracy: 0.9},
		{Dims: 20, Accuracy: 0.7},
	}}
	opt := c.Optimal()
	if opt.Dims != 5 || opt.Accuracy != 0.9 {
		t.Fatalf("Optimal = %+v (want dims=5 on tie)", opt)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("empty Optimal must panic")
		}
	}()
	Curve{}.Optimal()
}

func TestDefaultDimGrid(t *testing.T) {
	g := DefaultDimGrid(166, 16)
	if g[0] != 1 || g[len(g)-1] != 166 {
		t.Fatalf("grid endpoints = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not strictly increasing: %v", g)
		}
	}
	if len(g) > 16 {
		t.Fatalf("grid too long: %d", len(g))
	}
	// Small d: every dimensionality.
	if got := DefaultDimGrid(5, 16); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("small grid = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("d=0 must panic")
		}
	}()
	DefaultDimGrid(0, 4)
}

func TestSweepOnLatentData(t *testing.T) {
	// The central qualitative claim (Figures 5/8/11): accuracy peaks at a
	// small dimensionality and beats the full-dimensional accuracy.
	ds := synthetic.MustGenerate(synthetic.LatentFactorConfig{
		Name: "sweeptest", N: 240, Dims: 40, Classes: 2,
		ConceptStrengths: []float64{5, 4, 3}, ClassSeparation: 2,
		NoiseStdDev: 1.5, Seed: 12,
	})
	p, err := reduction.Fit(ds.X, reduction.Options{Scaling: reduction.ScalingStudentize, ComputeCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	curve := Sweep(ds, p, p.Order(reduction.ByEigenvalue), "eig", SweepConfig{
		Dims: []int{1, 2, 3, 5, 8, 12, 20, 40},
	})
	if curve.Label != "eig" || len(curve.Points) != 8 {
		t.Fatalf("curve shape wrong: %+v", curve)
	}
	opt := curve.Optimal()
	full := curve.Points[7]
	if full.Dims != 40 {
		t.Fatalf("last point has %d dims, want the full 40", full.Dims)
	}
	if opt.Dims > 12 {
		t.Fatalf("optimum at %d dims, expected aggressive (<=12)", opt.Dims)
	}
	if opt.Accuracy <= full.Accuracy {
		t.Fatalf("optimum %.3f not better than full-dim %.3f", opt.Accuracy, full.Accuracy)
	}
	// Energy fraction is monotone in dims and reaches 1 at full rank.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].EnergyFraction < curve.Points[i-1].EnergyFraction {
			t.Fatalf("energy fraction not monotone")
		}
	}
	if math.Abs(curve.Points[len(curve.Points)-1].EnergyFraction-1) > 1e-9 {
		t.Fatalf("full-rank energy = %v", curve.Points[len(curve.Points)-1].EnergyFraction)
	}
	// Precision disabled: NaN.
	if !math.IsNaN(curve.Points[0].Precision) {
		t.Fatalf("precision should be NaN when not computed")
	}
}

func TestSweepWithPrecision(t *testing.T) {
	ds := synthetic.UniformCube("u", 100, 8, 5)
	p, err := reduction.Fit(ds.X, reduction.Options{})
	if err != nil {
		t.Fatal(err)
	}
	curve := Sweep(ds, p, p.Order(reduction.ByEigenvalue), "u", SweepConfig{
		Dims: []int{2, 8}, ComputePrecision: true,
	})
	// Full-rank projection is a rotation: precision 1.
	lowPt, fullPt := curve.Points[0], curve.Points[1]
	if lowPt.Dims != 2 || fullPt.Dims != 8 {
		t.Fatalf("sweep points at %d and %d dims, want 2 and 8", lowPt.Dims, fullPt.Dims)
	}
	if math.Abs(fullPt.Precision-1) > 1e-12 {
		t.Fatalf("full-rank precision = %v", fullPt.Precision)
	}
	if !(lowPt.Precision < 1) {
		t.Fatalf("low-dim precision = %v, expected < 1", lowPt.Precision)
	}
}

func TestSweepValidation(t *testing.T) {
	ds := synthetic.UniformCube("u", 30, 4, 6)
	p, err := reduction.Fit(ds.X, reduction.Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := p.Order(reduction.ByEigenvalue)
	for name, fn := range map[string]func(){
		"bad dims":     func() { Sweep(ds, p, order, "x", SweepConfig{Dims: []int{0}}) },
		"dims too big": func() { Sweep(ds, p, order, "x", SweepConfig{Dims: []int{5}}) },
		"short order":  func() { Sweep(ds, p, order[:2], "x", SweepConfig{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

var _ = dataset.Dataset{}
