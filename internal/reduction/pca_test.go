package reduction

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// anisotropic2D returns points stretched along a known direction so the top
// principal component is predictable.
func anisotropic2D(n int, seed int64) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewDense(n, 2)
	for i := 0; i < n; i++ {
		t := rng.NormFloat64() * 10 // along (1,1)/√2
		s := rng.NormFloat64() * 1  // along (1,-1)/√2
		x.Set(i, 0, (t+s)/math.Sqrt2+3)
		x.Set(i, 1, (t-s)/math.Sqrt2-5)
	}
	return x
}

func TestFitRecoversKnownDirection(t *testing.T) {
	x := anisotropic2D(2000, 1)
	p, err := Fit(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Eigenvalues) != 2 {
		t.Fatalf("eigenvalues = %v", p.Eigenvalues)
	}
	// Variances ~100 and ~1.
	if p.Eigenvalues[0] < 80 || p.Eigenvalues[0] > 120 {
		t.Fatalf("top eigenvalue = %v", p.Eigenvalues[0])
	}
	if p.Eigenvalues[1] < 0.8 || p.Eigenvalues[1] > 1.2 {
		t.Fatalf("second eigenvalue = %v", p.Eigenvalues[1])
	}
	// Top component ~ ±(1,1)/√2.
	c := p.Components.Col(0)
	if math.Abs(math.Abs(c[0])-1/math.Sqrt2) > 0.02 || math.Abs(c[0]-c[1]) > 0.04 {
		t.Fatalf("top component = %v", c)
	}
	// Mean recovered.
	if math.Abs(p.Mean[0]-3) > 0.5 || math.Abs(p.Mean[1]+5) > 0.5 {
		t.Fatalf("mean = %v", p.Mean)
	}
}

func TestFitRejectsTooFewPoints(t *testing.T) {
	if _, err := Fit(linalg.NewDense(1, 3), Options{}); err == nil {
		t.Fatalf("expected error for single point")
	}
}

// TestFitNonFiniteDataIsTypedAndFast: one NaN in the data poisons a row and
// a column of the covariance; Fit must hand back linalg.ErrNotFinite from
// the solver's input scan, not ErrNoConvergence after QL and 100 Jacobi
// sweeps have run on it (≈ 7.6 s at d = 166).
func TestFitNonFiniteDataIsTypedAndFast(t *testing.T) {
	for _, scaling := range []Scaling{ScalingNone, ScalingStudentize} {
		x := synthetic.MuskLike(5).X
		x.Set(17, 40, math.NaN())
		start := time.Now()
		p, err := Fit(x, Options{Scaling: scaling, ComputeCoherence: true})
		if !errors.Is(err, linalg.ErrNotFinite) || p != nil {
			t.Errorf("%v: Fit on data with a NaN returned fit %v, error %v, want linalg.ErrNotFinite", scaling, p != nil, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%v: Fit took %v to reject a NaN", scaling, took)
		}
	}
}

func TestFitRejectsUnknownScaling(t *testing.T) {
	if _, err := Fit(linalg.NewDense(5, 2), Options{Scaling: Scaling(99)}); err == nil {
		t.Fatalf("expected error for bogus scaling")
	}
}

func TestEigenvaluesDescendingAndNonNegative(t *testing.T) {
	ds := synthetic.IonosphereLike(3)
	for _, sc := range []Scaling{ScalingNone, ScalingStudentize} {
		p, err := Fit(ds.X, Options{Scaling: sc})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range p.Eigenvalues {
			if v < 0 {
				t.Fatalf("%v: negative eigenvalue %v", sc, v)
			}
			if i > 0 && v > p.Eigenvalues[i-1]+1e-12 {
				t.Fatalf("%v: eigenvalues not descending", sc)
			}
		}
	}
}

func TestStudentizedEigenvalueSumEqualsDims(t *testing.T) {
	// Correlation-matrix PCA: total variance equals the number of
	// (non-constant) dimensions.
	ds := synthetic.IonosphereLike(4)
	p, err := Fit(ds.X, Options{Scaling: ScalingStudentize})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.TotalVariance(); math.Abs(got-float64(ds.Dims())) > 1e-6 {
		t.Fatalf("studentized total variance = %v, want %d", got, ds.Dims())
	}
}

func TestCovarianceTraceEqualsEigenvalueSum(t *testing.T) {
	ds := synthetic.UniformCube("u", 300, 10, 5)
	p, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := 0.0
	for _, v := range stats.ColumnVariances(ds.X) {
		trace += v
	}
	if math.Abs(p.TotalVariance()-trace) > 1e-9 {
		t.Fatalf("eigenvalue sum %v != variance trace %v", p.TotalVariance(), trace)
	}
}

func TestTransformAllIsIsometryOfNormalizedData(t *testing.T) {
	// Projection onto the full orthonormal basis preserves pairwise
	// Euclidean distances of the normalized data.
	ds := synthetic.UniformCube("u", 50, 6, 6)
	p, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	centered, _ := stats.Center(ds.X)
	rotated := p.TransformAll(ds.X)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			want := linalg.Dist2(centered.RawRow(i), centered.RawRow(j))
			got := linalg.Dist2(rotated.RawRow(i), rotated.RawRow(j))
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("distance (%d,%d) changed: %v vs %v", i, j, got, want)
			}
		}
	}
}

func TestTransformScoreVarianceMatchesEigenvalue(t *testing.T) {
	ds := synthetic.MuskLike(1)
	p, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scores := p.TransformAll(ds.X)
	vars := stats.ColumnVariances(scores)
	for i := 0; i < 5; i++ {
		if rel := math.Abs(vars[i]-p.Eigenvalues[i]) / (1 + p.Eigenvalues[i]); rel > 1e-8 {
			t.Fatalf("score variance %v != eigenvalue %v at %d", vars[i], p.Eigenvalues[i], i)
		}
	}
	// Scores are uncorrelated (the paper: concepts show no second-order
	// correlations).
	corr := stats.CorrelationMatrix(scores.SliceCols([]int{0, 1, 2, 3}))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && math.Abs(corr.At(i, j)) > 1e-6 {
				t.Fatalf("scores correlated: r(%d,%d)=%v", i, j, corr.At(i, j))
			}
		}
	}
}

// TestTransformPointMatchesTransform: a point projected alone is its own row
// of the projected matrix, bit for bit — the per-cluster search projects the
// query with one and scans rows projected with the other, and a member must
// score exactly 0 against itself. 549 rows is two whole blocks of Transform
// and a ragged third.
func TestTransformPointMatchesTransform(t *testing.T) {
	ds := synthetic.UniformCube("u", 549, 21, 8)
	p, err := Fit(ds.X, Options{Scaling: ScalingStudentize})
	if err != nil {
		t.Fatal(err)
	}
	comps := []int{0, 2, 4, 20, 7, 1, 3, 19, 11, 5, 6, 13, 17, 8, 9, 10}
	m := p.Transform(ds.X, comps)
	for i := 0; i < ds.N(); i++ {
		single := p.TransformPoint(ds.X.Row(i), comps)
		for c, v := range m.RawRow(i) {
			if math.Float64bits(single[c]) != math.Float64bits(v) {
				t.Fatalf("row %d component %d: TransformPoint %v (%#x), Transform %v (%#x)",
					i, comps[c], single[c], math.Float64bits(single[c]), v, math.Float64bits(v))
			}
		}
	}
}

// TestTransformAllocs pins Transform's memory contract: eight allocations —
// the component rows (a column slice and its transpose), the normalized copy
// and the output, header and data each — whatever the number of rows. It was
// two per row. One worker, so the product spawns nothing.
func TestTransformAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := synthetic.UniformCube("u", 6598, 20, 8)
	p, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comps := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, n := range []int{1, 255, 256, 257, 6598} {
		x := ds.X.RowSlice(0, n)
		if avg := testing.AllocsPerRun(5, func() { p.Transform(x, comps) }); avg != 8 {
			t.Errorf("Transform of %d rows does %.0f allocs, want 8", n, avg)
		}
	}
}

func TestTransformPanics(t *testing.T) {
	ds := synthetic.UniformCube("u", 20, 4, 9)
	p, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"wrong dims point":  func() { p.TransformPoint([]float64{1, 2}, []int{0}) },
		"wrong dims matrix": func() { p.Transform(linalg.NewDense(3, 7), []int{0}) },
		"empty components":  func() { p.Transform(ds.X, nil) },
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

func TestReduceDatasetPreservesLabels(t *testing.T) {
	ds := synthetic.IonosphereLike(7)
	p, err := Fit(ds.X, Options{ComputeCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	red := p.ReduceDataset(ds, p.TopK(ByEigenvalue, 5), "ion-5")
	if red.Dims() != 5 || red.N() != ds.N() {
		t.Fatalf("reduced shape %dx%d", red.N(), red.Dims())
	}
	for i := range red.Labels {
		if red.Labels[i] != ds.Labels[i] {
			t.Fatalf("labels changed at %d", i)
		}
	}
}

func TestFitDatasetMatchesFit(t *testing.T) {
	ds := synthetic.UniformCube("u", 25, 3, 2)
	a, err := FitDataset(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.VecEqual(a.Eigenvalues, b.Eigenvalues, 0) {
		t.Fatalf("FitDataset differs from Fit")
	}
}

func TestCoherenceComputedOnlyWhenRequested(t *testing.T) {
	ds := synthetic.UniformCube("u", 30, 4, 3)
	p, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Coherence != nil || p.MeanFactor != nil {
		t.Fatalf("coherence computed without request")
	}
	p2, err := Fit(ds.X, Options{ComputeCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Coherence) != 4 || len(p2.MeanFactor) != 4 {
		t.Fatalf("coherence missing: %v", p2.Coherence)
	}
	for _, c := range p2.Coherence {
		if c < 0 || c >= 1 {
			t.Fatalf("coherence out of range: %v", c)
		}
	}
}

func TestUniformCoherenceProfileIsFlat(t *testing.T) {
	// §3: for uniform data "the coherence probability is the same for each
	// and every vector, [so] all the dimensions have to be retained." The
	// closed-form value 2Φ(1)−1 ≈ 0.68 holds for axis-aligned vectors (see
	// core's TestDatasetCoherenceUniformData); sample PCA returns an
	// arbitrary rotation of the nearly-degenerate eigenbasis, so here we
	// assert the structural conclusion: a flat, modest coherence profile
	// with no component standing out.
	ds := synthetic.UniformCube("u", 2000, 12, 13)
	p, err := Fit(ds.X, Options{ComputeCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	min, max := p.Coherence[0], p.Coherence[0]
	for _, c := range p.Coherence {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 0.1 {
		t.Fatalf("uniform coherence profile not flat: spread %v (%v..%v)", max-min, min, max)
	}
	if mean := stats.Mean(p.Coherence); mean < 0.4 || mean > 0.75 {
		t.Fatalf("uniform coherence mean = %v, expected modest", mean)
	}
}

func TestScalingChangesBasisOnHeterogeneousData(t *testing.T) {
	// §2.2 / Figure 2: on data with wildly different per-dimension scales,
	// covariance-PCA and correlation-PCA produce different top components.
	ds := synthetic.MustGenerate(synthetic.LatentFactorConfig{
		Name: "scales", N: 300, Dims: 10, Classes: 2,
		ConceptStrengths: []float64{3, 2}, ClassSeparation: 1,
		NoiseStdDev: 0.5, ScaleSpread: 3, Seed: 21,
	})
	pn, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Fit(ds.X, Options{Scaling: ScalingStudentize})
	if err != nil {
		t.Fatal(err)
	}
	dot := math.Abs(linalg.Dot(pn.Components.Col(0), ps.Components.Col(0)))
	if dot > 0.99 {
		t.Fatalf("scaling had no effect on the top component (|dot|=%v)", dot)
	}
}

func TestScalingString(t *testing.T) {
	if ScalingNone.String() != "none" || ScalingStudentize.String() != "studentize" {
		t.Fatalf("Scaling.String wrong")
	}
	if Scaling(9).String() == "" {
		t.Fatalf("unknown scaling must still render")
	}
}

func TestEnergyTargetZeroVarianceAndFullTail(t *testing.T) {
	// All-zero eigenvalues: degenerate transform keeps one component.
	p := &PCA{
		Mean:        make([]float64, 3),
		Eigenvalues: []float64{0, 0, 0},
		Components:  linalg.Identity(3),
	}
	if got := p.EnergyTarget(0.5); len(got) != 1 || got[0] != 0 {
		t.Fatalf("zero-variance EnergyTarget = %v", got)
	}
	// Floating-point shortfall: requesting slightly more than the
	// accumulated fraction returns everything.
	p2 := &PCA{
		Mean:        make([]float64, 2),
		Eigenvalues: []float64{1, 1},
		Components:  linalg.Identity(2),
	}
	if got := p2.EnergyTarget(1.0); len(got) != 2 {
		t.Fatalf("full EnergyTarget = %v", got)
	}
}

var _ = dataset.Dataset{} // keep import when test set shrinks
