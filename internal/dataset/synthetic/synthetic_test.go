package synthetic

import (
	"math"
	"sort"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stats"
)

func TestGenerateValidation(t *testing.T) {
	base := LatentFactorConfig{
		Name: "x", N: 10, Dims: 5, Classes: 2,
		ConceptStrengths: []float64{1, 1}, NoiseStdDev: 0.1,
	}
	cases := []func(*LatentFactorConfig){
		func(c *LatentFactorConfig) { c.N = 1 },
		func(c *LatentFactorConfig) { c.Dims = 0 },
		func(c *LatentFactorConfig) { c.Classes = 1 },
		func(c *LatentFactorConfig) { c.ConceptStrengths = nil },
		func(c *LatentFactorConfig) { c.ConceptStrengths = []float64{1, 1, 1, 1, 1, 1} },
		func(c *LatentFactorConfig) { c.ConceptStrengths = []float64{1, -1} },
		func(c *LatentFactorConfig) { c.NoiseStdDev = -0.5 },
	}
	for i, mutate := range cases {
		c := base
		c.ConceptStrengths = append([]float64{}, base.ConceptStrengths...)
		mutate(&c)
		if _, err := Generate(c); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if _, err := Generate(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := MuskLikeConfig(42)
	a := MustGenerate(c)
	b := MustGenerate(c)
	if !a.X.Equal(b.X, 0) {
		t.Fatalf("same seed produced different data")
	}
	c2 := MuskLikeConfig(43)
	d := MustGenerate(c2)
	if a.X.Equal(d.X, 0) {
		t.Fatalf("different seeds produced identical data")
	}
}

func TestGenerateShapeAndLabels(t *testing.T) {
	d := MustGenerate(LatentFactorConfig{
		Name: "t", N: 90, Dims: 12, Classes: 3,
		ConceptStrengths: []float64{3, 2}, ClassSeparation: 2, NoiseStdDev: 0.2, Seed: 7,
	})
	if d.N() != 90 || d.Dims() != 12 {
		t.Fatalf("shape %dx%d", d.N(), d.Dims())
	}
	counts := d.ClassCounts()
	if len(counts) != 3 || counts[0] != 30 || counts[2] != 30 {
		t.Fatalf("classes not balanced: %v", counts)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLatentFactorLowImplicitDimensionality(t *testing.T) {
	// The covariance spectrum must be dominated by the latent concepts:
	// with k strong concepts and small noise, the top-k eigenvalues carry
	// most of the variance.
	k := 4
	d := MustGenerate(LatentFactorConfig{
		Name: "lowdim", N: 400, Dims: 30, Classes: 2,
		ConceptStrengths: []float64{5, 5, 5, 5}, ClassSeparation: 1, NoiseStdDev: 0.3, Seed: 11,
	})
	cov := stats.CovarianceMatrix(d.X)
	ed, err := linalg.EigSym(cov)
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := ed.Descending()
	total, top := 0.0, 0.0
	for i, v := range vals {
		total += v
		if i < k {
			top += v
		}
	}
	if frac := top / total; frac < 0.9 {
		t.Fatalf("top-%d eigenvalues carry only %.2f of variance", k, frac)
	}
}

func TestScaleSpreadChangesVarianceSpread(t *testing.T) {
	base := LatentFactorConfig{
		Name: "s", N: 300, Dims: 20, Classes: 2,
		ConceptStrengths: []float64{2, 2}, NoiseStdDev: 1, Seed: 5,
	}
	flat := MustGenerate(base)
	spread := base
	spread.ScaleSpread = 2
	wide := MustGenerate(spread)
	ratio := func(x *linalg.Dense) float64 {
		vars := stats.ColumnVariances(x)
		sort.Float64s(vars)
		return vars[len(vars)-1] / vars[0]
	}
	if ratio(wide.X) < 10*ratio(flat.X) {
		t.Fatalf("ScaleSpread did not widen variance spread: %v vs %v", ratio(wide.X), ratio(flat.X))
	}
}

func TestClassSeparationDrivesFeatureLabelDependence(t *testing.T) {
	// With separation, class centroids in feature space must be far apart
	// relative to the no-separation case.
	gen := func(sep float64) float64 {
		d := MustGenerate(LatentFactorConfig{
			Name: "c", N: 400, Dims: 15, Classes: 2,
			ConceptStrengths: []float64{3, 3}, ClassSeparation: sep, NoiseStdDev: 0.3, Seed: 9,
		})
		var c0, c1 []float64
		n0, n1 := 0, 0
		c0 = make([]float64, d.Dims())
		c1 = make([]float64, d.Dims())
		for i := 0; i < d.N(); i++ {
			row := d.X.RawRow(i)
			if d.Labels[i] == 0 {
				linalg.Axpy(1, row, c0)
				n0++
			} else {
				linalg.Axpy(1, row, c1)
				n1++
			}
		}
		linalg.ScaleVec(1/float64(n0), c0)
		linalg.ScaleVec(1/float64(n1), c1)
		return linalg.Dist2(c0, c1)
	}
	if gen(3) < 4*gen(0) {
		t.Fatalf("class separation has no effect: sep=3 dist %v, sep=0 dist %v", gen(3), gen(0))
	}
}

func TestPresets(t *testing.T) {
	musk := MuskLike(1)
	if musk.N() != 476 || musk.Dims() != 166 || musk.NumClasses() != 2 {
		t.Fatalf("musk shape: %s", musk)
	}
	ion := IonosphereLike(1)
	if ion.N() != 351 || ion.Dims() != 34 || ion.NumClasses() != 2 {
		t.Fatalf("ionosphere shape: %s", ion)
	}
	arr := ArrhythmiaLike(1)
	if arr.N() != 452 || arr.Dims() != 279 || arr.NumClasses() != 8 {
		t.Fatalf("arrhythmia shape: %s", arr)
	}
	for _, d := range []interface{ Validate() error }{musk, ion, arr} {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUniformCube(t *testing.T) {
	d := UniformCube("u", 1000, 8, 3)
	if d.N() != 1000 || d.Dims() != 8 {
		t.Fatalf("shape %dx%d", d.N(), d.Dims())
	}
	// All values in [-0.5, 0.5); means near 0, variance near 1/12.
	means := stats.ColumnMeans(d.X)
	vars := stats.ColumnVariances(d.X)
	for j := 0; j < d.Dims(); j++ {
		if math.Abs(means[j]) > 0.05 {
			t.Fatalf("mean[%d] = %v", j, means[j])
		}
		if math.Abs(vars[j]-1.0/12.0) > 0.01 {
			t.Fatalf("var[%d] = %v, want ~1/12", j, vars[j])
		}
	}
	for i := 0; i < d.N(); i++ {
		for _, v := range d.X.RawRow(i) {
			if v < -0.5 || v >= 0.5 {
				t.Fatalf("value %v outside cube", v)
			}
		}
	}
}

func TestCorrupt(t *testing.T) {
	d := MustGenerate(LatentFactorConfig{
		Name: "c", N: 50, Dims: 10, Classes: 2,
		ConceptStrengths: []float64{2}, NoiseStdDev: 0.1, Seed: 6,
	})
	cols := []int{1, 4, 7}
	noisy := Corrupt(d, cols, 6, 99)
	// Corrupted columns lie in [0, 6); untouched columns identical.
	for i := 0; i < noisy.N(); i++ {
		row := noisy.X.RawRow(i)
		orig := d.X.RawRow(i)
		for j := range row {
			switch j {
			case 1, 4, 7:
				if row[j] < 0 || row[j] >= 6 {
					t.Fatalf("corrupted value %v outside [0,6)", row[j])
				}
			default:
				if row[j] != orig[j] {
					t.Fatalf("untouched column %d changed", j)
				}
			}
		}
	}
	// Original untouched, labels preserved.
	if noisy.Labels[3] != d.Labels[3] {
		t.Fatalf("labels changed")
	}
	// Determinism.
	again := Corrupt(d, cols, 6, 99)
	if !again.X.Equal(noisy.X, 0) {
		t.Fatalf("Corrupt not deterministic")
	}
}

func TestCorruptPanics(t *testing.T) {
	d := UniformCube("u", 10, 4, 1)
	for name, fn := range map[string]func(){
		"amplitude":  func() { Corrupt(d, []int{0}, 0, 1) },
		"oob column": func() { Corrupt(d, []int{9}, 1, 1) },
		"duplicate":  func() { Corrupt(d, []int{1, 1}, 1, 1) },
		"count zero": func() { CorruptRandom(d, 0, 1, 1) },
		"count big":  func() { CorruptRandom(d, 5, 1, 1) },
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

func TestCorruptRandom(t *testing.T) {
	d := UniformCube("u", 40, 12, 2)
	noisy, cols := CorruptRandom(d, 4, 6, 77)
	if len(cols) != 4 {
		t.Fatalf("cols = %v", cols)
	}
	seen := map[int]bool{}
	for _, c := range cols {
		if seen[c] {
			t.Fatalf("duplicate column %d", c)
		}
		seen[c] = true
	}
	// Corrupted columns have much larger variance than the base cube
	// columns (U(0,6) variance 3 vs 1/12).
	vars := stats.ColumnVariances(noisy.X)
	for _, c := range cols {
		if vars[c] < 1 {
			t.Fatalf("corrupted column %d variance %v too small", c, vars[c])
		}
	}
}
