package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/stats"
)

func TestContributionsSumToProjection(t *testing.T) {
	x := []float64{1, -2, 3}
	e := []float64{0.5, 0.5, 0.5}
	c := Contributions(x, e)
	if got, want := stats.Sum(c), linalg.Dot(x, e); math.Abs(got-want) > 1e-15 {
		t.Fatalf("contributions sum %v != projection %v", got, want)
	}
	if !linalg.VecEqual(c, []float64{0.5, -1, 1.5}, 0) {
		t.Fatalf("contributions = %v", c)
	}
}

func TestContributionsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Contributions([]float64{1}, []float64{1, 2})
}

func TestCoherenceFactorAxisVectorIsOne(t *testing.T) {
	// The paper's §3 closed form: for any point and an axis-aligned unit
	// vector e₁ = (1,0,…,0) with x₁ ≠ 0, the coherence factor is exactly 1,
	// independent of the coordinates and the dimensionality.
	for _, d := range []int{2, 5, 20, 100} {
		x := make([]float64, d)
		e := make([]float64, d)
		x[0] = 3.7 // arbitrary nonzero
		e[0] = 1
		for j := 1; j < d; j++ {
			x[j] = float64(j) // values on other dims are irrelevant
		}
		if got := CoherenceFactor(x, e); math.Abs(got-1) > 1e-12 {
			t.Fatalf("d=%d: axis coherence factor = %v, want 1", d, got)
		}
		// And the coherence probability is 2Φ(1)−1 ≈ 0.6827 (Equation 5).
		if got := CoherenceProbability(x, e); math.Abs(got-0.6826894921370859) > 1e-12 {
			t.Fatalf("d=%d: axis coherence probability = %v", d, got)
		}
	}
}

func TestCoherenceFactorZeroPoint(t *testing.T) {
	x := []float64{0, 0, 0}
	e := []float64{1, 0, 0}
	if got := CoherenceFactor(x, e); got != 0 {
		t.Fatalf("zero point factor = %v", got)
	}
	if got := CoherenceProbability(x, e); got != 0 {
		t.Fatalf("zero point probability = %v", got)
	}
}

func TestCoherenceFactorPerfectAgreement(t *testing.T) {
	// When every dimension contributes the same value, the empirical spread
	// σ equals the |mean| contribution, so CF = √d — the maximum possible:
	// by Cauchy–Schwarz |Σc| <= √d·√(Σc²), hence CF <= √d always.
	for _, d := range []int{2, 4, 9, 16} {
		x := make([]float64, d)
		e := make([]float64, d)
		for j := range x {
			x[j] = 2
			e[j] = 1 / math.Sqrt(float64(d))
		}
		if got, want := CoherenceFactor(x, e), math.Sqrt(float64(d)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("d=%d: perfect agreement CF = %v, want %v", d, got, want)
		}
	}
}

func TestCoherenceFactorUpperBoundProperty(t *testing.T) {
	// CF(x,e) <= √d for all x, e (Cauchy–Schwarz).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(30)
		x := make([]float64, d)
		e := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64() * 10
			e[j] = rng.NormFloat64()
		}
		cf := CoherenceFactor(x, e)
		return cf >= 0 && cf <= math.Sqrt(float64(d))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoherenceFactorScaleInvariantInE(t *testing.T) {
	// Scaling the direction vector must not change the coherence factor
	// (numerator and denominator scale together).
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 12)
	e := make([]float64, 12)
	for j := range x {
		x[j] = rng.NormFloat64()
		e[j] = rng.NormFloat64()
	}
	base := CoherenceFactor(x, e)
	scaled := make([]float64, len(e))
	for j := range e {
		scaled[j] = e[j] * 7.3
	}
	if got := CoherenceFactor(x, scaled); math.Abs(got-base) > 1e-12 {
		t.Fatalf("CF not scale invariant in e: %v vs %v", got, base)
	}
	// Also invariant under scaling of x.
	xs := make([]float64, len(x))
	for j := range x {
		xs[j] = x[j] * -0.31
	}
	if got := CoherenceFactor(xs, e); math.Abs(got-base) > 1e-12 {
		t.Fatalf("CF not scale invariant in x: %v vs %v", got, base)
	}
}

func TestCoherenceProbabilityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(20)
		x := make([]float64, d)
		e := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64()
			e[j] = rng.NormFloat64()
		}
		p := CoherenceProbability(x, e)
		return p >= 0 && p < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetCoherenceUniformData(t *testing.T) {
	// Equation 5: for uniform data and axis vectors,
	// P(D,e_i) = 2Φ(1) − 1 ≈ 0.683 for every i — exactly, because the
	// coherence factor is identically 1 for every point with x_i ≠ 0.
	cube := synthetic.UniformCube("u", 500, 20, 7)
	centered, _ := stats.Center(cube.X)
	for _, i := range []int{0, 7, 19} {
		e := make([]float64, 20)
		e[i] = 1
		got := DatasetCoherence(centered, e)
		if math.Abs(got-0.6826894921370859) > 1e-9 {
			t.Fatalf("uniform data axis %d coherence = %v, want ~0.6827", i, got)
		}
	}
}

func TestDatasetCoherenceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	DatasetCoherence(linalg.NewDense(3, 4), []float64{1, 0})
}

func TestAnalyzeBasisConceptVsNoise(t *testing.T) {
	// A latent-factor data set: the concept direction must receive much
	// higher coherence than a random direction orthogonal to it.
	ds := synthetic.MustGenerate(synthetic.LatentFactorConfig{
		Name: "one-concept", N: 300, Dims: 40, Classes: 2,
		ConceptStrengths: []float64{6}, ClassSeparation: 1, NoiseStdDev: 0.3, Seed: 5,
	})
	cov := stats.CovarianceMatrix(ds.X)
	ed, err := linalg.EigSym(cov)
	if err != nil {
		t.Fatal(err)
	}
	_, vecs := ed.Descending()
	ba := AnalyzeBasis(ds.X, vecs, true)
	cps := ba.Coherences()
	// Top eigenvector = the concept; the rest are isotropic noise.
	concept := cps[0]
	noiseMean := stats.Mean(cps[1:])
	if concept < noiseMean+0.1 {
		t.Fatalf("concept coherence %v not separated from noise mean %v", concept, noiseMean)
	}
	// Eigenvalue of the top report must dominate.
	if top, next := ba.Reports[0].Eigenvalue, ba.Reports[1].Eigenvalue; top < 5*next {
		t.Fatalf("top eigenvalue %v not dominant over %v", top, next)
	}
}

func TestAnalyzeBasisEigenvaluesMatchEigSym(t *testing.T) {
	// The per-direction variance computed by AnalyzeBasis on eigenvectors
	// must reproduce the eigenvalues of the covariance matrix.
	ds := synthetic.UniformCube("u", 400, 6, 3)
	cov := stats.CovarianceMatrix(ds.X)
	ed, err := linalg.EigSym(cov)
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs := ed.Descending()
	ba := AnalyzeBasis(ds.X, vecs, true)
	for i, r := range ba.Reports {
		if math.Abs(r.Eigenvalue-vals[i]) > 1e-10 {
			t.Fatalf("report %d eigenvalue %v != eig %v", i, r.Eigenvalue, vals[i])
		}
		if r.Index != i {
			t.Fatalf("report %d has index %d", i, r.Index)
		}
	}
}

func TestAnalyzeBasisCenterFlag(t *testing.T) {
	// Passing already-centered data with center=false must agree with
	// passing raw data with center=true.
	ds := synthetic.UniformCube("u", 100, 5, 9)
	centered, _ := stats.Center(ds.X)
	basis := linalg.Identity(5)
	a := AnalyzeBasis(ds.X, basis, true)
	b := AnalyzeBasis(centered, basis, false)
	for i := range a.Reports {
		if math.Abs(a.Reports[i].Coherence-b.Reports[i].Coherence) > 1e-12 {
			t.Fatalf("center flag changed coherence at %d", i)
		}
	}
}

func TestAnalyzeBasisDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	AnalyzeBasis(linalg.NewDense(10, 4), linalg.Identity(5), true)
}

func TestEigenvalueCoherenceCorrelation(t *testing.T) {
	// Clean latent data: eigenvalue magnitude and coherence correlate
	// (paper §4: "usually eigenvectors with high magnitudes also have high
	// coherence probabilities").
	ds := synthetic.MustGenerate(synthetic.LatentFactorConfig{
		Name: "clean", N: 400, Dims: 25, Classes: 2,
		ConceptStrengths: []float64{6, 5, 4}, ClassSeparation: 1, NoiseStdDev: 0.4, Seed: 8,
	})
	std := ds.Standardized()
	cov := stats.CovarianceMatrix(std.X)
	ed, err := linalg.EigSym(cov)
	if err != nil {
		t.Fatal(err)
	}
	_, vecs := ed.Descending()
	ba := AnalyzeBasis(std.X, vecs, true)
	evs := make([]float64, len(ba.Reports))
	for i, rep := range ba.Reports {
		evs[i] = rep.Eigenvalue
	}
	if r := stats.Pearson(evs, ba.Coherences()); r < 0.5 {
		t.Fatalf("clean data eigenvalue/coherence correlation = %v, want strong positive", r)
	}
}

func TestMeanFactorTracksCoherence(t *testing.T) {
	// MeanFactor and Coherence are monotonically related summaries; a
	// direction with higher coherence probability must have a higher mean
	// factor on the same data.
	ds := synthetic.MustGenerate(synthetic.LatentFactorConfig{
		Name: "mf", N: 200, Dims: 30, Classes: 2,
		ConceptStrengths: []float64{8}, ClassSeparation: 1, NoiseStdDev: 0.2, Seed: 3,
	})
	cov := stats.CovarianceMatrix(ds.X)
	ed, err := linalg.EigSym(cov)
	if err != nil {
		t.Fatal(err)
	}
	_, vecs := ed.Descending()
	ba := AnalyzeBasis(ds.X, vecs, true)
	top, bottom := ba.Reports[0], ba.Reports[len(ba.Reports)-1]
	if top.Coherence > bottom.Coherence && top.MeanFactor <= bottom.MeanFactor {
		t.Fatalf("MeanFactor ordering contradicts Coherence ordering")
	}
}

func TestContributionHistogram(t *testing.T) {
	// Figure 1 machinery: a coherent vector (all contributions equal)
	// yields a tight histogram; an incoherent one a wide histogram.
	d := 64
	coherentX := make([]float64, d)
	e := make([]float64, d)
	incoherentX := make([]float64, d)
	rng := rand.New(rand.NewSource(4))
	for j := 0; j < d; j++ {
		coherentX[j] = 1
		e[j] = 1 / math.Sqrt(float64(d))
		incoherentX[j] = rng.NormFloat64() * 5
	}
	hc := ContributionHistogram(coherentX, e, 10)
	hi := ContributionHistogram(incoherentX, e, 10)
	if hc.Total() != d || hi.Total() != d {
		t.Fatalf("histogram totals wrong")
	}
	// All coherent contributions identical → a single occupied bin region.
	occupied := 0
	for _, c := range hc.Counts {
		if c > 0 {
			occupied++
		}
	}
	if occupied != 1 {
		t.Fatalf("coherent histogram occupies %d bins", occupied)
	}
}

// referenceAnalysis is AnalyzeBasis as the definitions state it, one
// CoherenceFactor per (point, direction): what the two-product form is
// checked against.
func referenceAnalysis(work, basis *linalg.Dense) []VectorReport {
	n, _ := work.Dims()
	_, k := basis.Dims()
	out := make([]VectorReport, k)
	for j := 0; j < k; j++ {
		e := basis.Col(j)
		sumCF, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			sumCF += CoherenceFactor(work.RawRow(i), e)
			p := linalg.Dot(work.RawRow(i), e)
			sumSq += p * p
		}
		out[j] = VectorReport{
			Index:      j,
			Eigenvalue: sumSq / float64(n),
			Coherence:  DatasetCoherence(work, e),
			MeanFactor: sumCF / float64(n),
		}
	}
	return out
}

func TestAnalyzeBasisMatchesPerPointDefinition(t *testing.T) {
	relClose := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(want), 1e-300)
	}
	for _, ds := range []*linalg.Dense{
		synthetic.MustGenerate(synthetic.LatentFactorConfig{
			Name: "one-concept", N: 300, Dims: 40, Classes: 2,
			ConceptStrengths: []float64{6}, ClassSeparation: 1, NoiseStdDev: 0.3, Seed: 5,
		}).X,
		synthetic.UniformCube("u", 400, 6, 3).X,
		synthetic.MustGenerate(synthetic.LatentFactorConfig{
			Name: "clean", N: 400, Dims: 25, Classes: 2,
			ConceptStrengths: []float64{6, 5, 4}, ClassSeparation: 1, NoiseStdDev: 0.4, Seed: 8,
		}).Standardized().X,
	} {
		work, _ := stats.Center(ds)
		ed, err := linalg.EigSym(stats.CovarianceMatrix(work))
		if err != nil {
			t.Fatal(err)
		}
		_, vecs := ed.Descending()
		got := AnalyzeBasis(work, vecs, false).Reports
		for j, want := range referenceAnalysis(work, vecs) {
			g := got[j]
			if g.Index != want.Index || !relClose(g.Coherence, want.Coherence) ||
				!relClose(g.MeanFactor, want.MeanFactor) || !relClose(g.Eigenvalue, want.Eigenvalue) {
				t.Fatalf("%dx%d direction %d: got %+v, per-point definition gives %+v", work.Rows(), work.Cols(), j, g, want)
			}
		}
	}
}

func TestAnalyzeBasisZeroSigmaRows(t *testing.T) {
	// Row 0 is the zero point; row 1 has no overlap with e₂ and e₃. Both
	// have σ = 0 along those directions and must count as coherence factor
	// 0 — not as a 0/0 — exactly as CoherenceFactor treats them.
	work := linalg.FromRows([][]float64{
		{0, 0, 0},
		{2, 0, 0},
		{1, -1, 3},
	})
	basis := linalg.Identity(3)
	got := AnalyzeBasis(work, basis, false).Reports
	for j, want := range referenceAnalysis(work, basis) {
		if math.IsNaN(got[j].Coherence) || math.IsNaN(got[j].MeanFactor) {
			t.Fatalf("direction %d: σ=0 rows produced NaN: %+v", j, got[j])
		}
		if math.Abs(got[j].Coherence-want.Coherence) > 1e-15 || math.Abs(got[j].MeanFactor-want.MeanFactor) > 1e-15 {
			t.Fatalf("direction %d: got %+v, want %+v", j, got[j], want)
		}
	}
}
