package reduction

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/stats"
)

func TestAccumulatorMatchesBatchCovariance(t *testing.T) {
	ds := synthetic.UniformCube("u", 300, 8, 1)
	acc := NewCovarianceAccumulator(8)
	acc.AddMatrix(ds.X)
	if acc.N() != 300 {
		t.Fatalf("N = %d", acc.N())
	}
	if !linalg.VecEqual(acc.Mean(), stats.ColumnMeans(ds.X), 1e-12) {
		t.Fatalf("streaming mean diverges")
	}
	if !acc.Covariance().Equal(stats.CovarianceMatrix(ds.X), 1e-10) {
		t.Fatalf("streaming covariance diverges from batch")
	}
}

func TestAccumulatorFitMatchesBatchFit(t *testing.T) {
	ds := synthetic.IonosphereLike(2)
	acc := NewCovarianceAccumulator(ds.Dims())
	acc.AddMatrix(ds.X)
	sp, err := acc.FitPCA()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.VecEqual(sp.Eigenvalues, bp.Eigenvalues, 1e-7) {
		t.Fatalf("eigenvalues diverge:\nstream %v\nbatch  %v", sp.Eigenvalues[:5], bp.Eigenvalues[:5])
	}
	// Components may differ by sign; compare projections of a point.
	pt := ds.X.Row(3)
	comps := []int{0, 1, 2}
	a := sp.TransformPoint(pt, comps)
	b := bp.TransformPoint(pt, comps)
	for i := range a {
		if math.Abs(math.Abs(a[i])-math.Abs(b[i])) > 1e-7 {
			t.Fatalf("projection %d: |%v| vs |%v|", i, a[i], b[i])
		}
	}
}

func TestAccumulatorFitNonFiniteIsTyped(t *testing.T) {
	ds := synthetic.IonosphereLike(2)
	acc := NewCovarianceAccumulator(ds.Dims())
	acc.AddMatrix(ds.X)
	bad := ds.X.Row(0)
	bad[3] = math.Inf(1)
	acc.Add(bad)
	if p, err := acc.FitPCA(); !errors.Is(err, linalg.ErrNotFinite) || p != nil {
		t.Fatalf("FitPCA after an Inf point returned fit %v, error %v, want linalg.ErrNotFinite", p != nil, err)
	}
}

func TestAccumulatorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero dims":  func() { NewCovarianceAccumulator(0) },
		"bad add":    func() { NewCovarianceAccumulator(3).Add([]float64{1}) },
		"empty mean": func() { NewCovarianceAccumulator(3).Mean() },
		"single cov": func() {
			a := NewCovarianceAccumulator(2)
			a.Add([]float64{1, 2})
			a.Covariance()
		},
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

func TestAccumulatorIncrementalRefreshProperty(t *testing.T) {
	// Property: after any prefix of a stream, the accumulator covariance
	// equals the batch covariance of that prefix.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		d := 1 + rng.Intn(5)
		x := linalg.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		acc := NewCovarianceAccumulator(d)
		for i := 0; i < n; i++ {
			acc.Add(x.RawRow(i))
			if i >= 1 {
				rows := make([]int, i+1)
				for r := range rows {
					rows[r] = r
				}
				prefix := x.SliceRows(rows)
				if !acc.Covariance().Equal(stats.CovarianceMatrix(prefix), 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingDynamicDatabaseScenario(t *testing.T) {
	// End-to-end dynamic-database flow: ingest in two batches, fit, then
	// verify reduced-space quality matches the batch pipeline.
	ds := synthetic.MuskLike(3)
	half := ds.N() / 2
	first := make([]int, half)
	second := make([]int, ds.N()-half)
	for i := range first {
		first[i] = i
	}
	for i := range second {
		second[i] = half + i
	}
	a := NewCovarianceAccumulator(ds.Dims())
	a.AddMatrix(ds.X.SliceRows(first))
	a.AddMatrix(ds.X.SliceRows(second))
	sp, err := a.FitPCA()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr := sp.Transform(ds.X, sp.TopK(ByEigenvalue, 13))
	br := bp.Transform(ds.X, bp.TopK(ByEigenvalue, 13))
	// Same subspace up to rotation/sign: pairwise distances must agree.
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			ds1 := linalg.Dist2(sr.RawRow(i), sr.RawRow(j))
			ds2 := linalg.Dist2(br.RawRow(i), br.RawRow(j))
			if math.Abs(ds1-ds2) > 1e-6*(1+ds1) {
				t.Fatalf("reduced distances diverge: %v vs %v", ds1, ds2)
			}
		}
	}
}
