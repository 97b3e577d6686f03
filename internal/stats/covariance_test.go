package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestColumnMeansAndVariances(t *testing.T) {
	x := linalg.FromRows([][]float64{
		{1, 10},
		{3, 10},
		{5, 10},
	})
	means := ColumnMeans(x)
	if !linalg.VecEqual(means, []float64{3, 10}, 1e-15) {
		t.Fatalf("means = %v", means)
	}
	vars := ColumnVariances(x)
	if !linalg.VecEqual(vars, []float64{8.0 / 3.0, 0}, 1e-12) {
		t.Fatalf("vars = %v", vars)
	}
}

func TestCenter(t *testing.T) {
	x := linalg.FromRows([][]float64{{1, 2}, {3, 6}})
	c, means := Center(x)
	if !linalg.VecEqual(means, []float64{2, 4}, 0) {
		t.Fatalf("means = %v", means)
	}
	if !linalg.VecEqual(ColumnMeans(c), []float64{0, 0}, 1e-15) {
		t.Fatalf("centered data not centered")
	}
	// Original must be untouched.
	if x.At(0, 0) != 1 {
		t.Fatalf("Center mutated its input")
	}
}

func TestStandardize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := linalg.NewDense(200, 3)
	for i := 0; i < 200; i++ {
		x.Set(i, 0, rng.NormFloat64()*10+5)   // large scale
		x.Set(i, 1, rng.NormFloat64()*0.01-2) // tiny scale
		x.Set(i, 2, 7)                        // constant
	}
	s, _, sds := Standardize(x, 1e-12)
	vars := ColumnVariances(s)
	if !almostEqual(vars[0], 1, 1e-9) || !almostEqual(vars[1], 1, 1e-9) {
		t.Fatalf("standardized variances = %v", vars)
	}
	// Constant column keeps scale 1 (no divide-by-zero blowup).
	if sds[2] != 1 {
		t.Fatalf("constant column sd = %v, want 1", sds[2])
	}
	if vars[2] != 0 {
		t.Fatalf("constant column variance after standardize = %v", vars[2])
	}
}

func TestCovarianceMatrixHandComputed(t *testing.T) {
	// Points (0,0), (2,2): population covariance [[1,1],[1,1]].
	x := linalg.FromRows([][]float64{{0, 0}, {2, 2}})
	c := CovarianceMatrix(x)
	want := linalg.FromRows([][]float64{{1, 1}, {1, 1}})
	if !c.Equal(want, 1e-14) {
		t.Fatalf("cov = %v, want %v", c, want)
	}
}

func TestCovarianceMatrixDiagonalEqualsVariances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := linalg.NewDense(80, 5)
	for i := 0; i < 80; i++ {
		for j := 0; j < 5; j++ {
			x.Set(i, j, rng.NormFloat64()*float64(j+1))
		}
	}
	c := CovarianceMatrix(x)
	vars := ColumnVariances(x)
	for j := 0; j < 5; j++ {
		if !almostEqual(c.At(j, j), vars[j], 1e-10) {
			t.Fatalf("cov diagonal %d = %v, want %v", j, c.At(j, j), vars[j])
		}
	}
	if !c.IsSymmetric(0) {
		t.Fatalf("covariance matrix not exactly symmetric")
	}
}

func TestCovarianceTraceEqualsTotalVariance(t *testing.T) {
	// The paper's §2 invariant: the trace of C equals the mean squared
	// deviation from the centroid (total variance), and is rotation
	// invariant.
	rng := rand.New(rand.NewSource(7))
	x := linalg.NewDense(60, 4)
	for i := 0; i < 60; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	c := CovarianceMatrix(x)
	centered, _ := Center(x)
	msd := 0.0
	for i := 0; i < 60; i++ {
		row := centered.RawRow(i)
		msd += linalg.Dot(row, row)
	}
	msd /= 60
	trace := 0.0
	for j := 0; j < 4; j++ {
		trace += c.At(j, j)
	}
	if !almostEqual(trace, msd, 1e-10) {
		t.Fatalf("trace %v != mean squared deviation %v", trace, msd)
	}
}

func TestCovariancePSDProperty(t *testing.T) {
	// Covariance matrices are positive semi-definite: vᵀ C v >= 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		d := 2 + rng.Intn(6)
		x := linalg.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		c := CovarianceMatrix(x)
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		q := 0.0
		for i, vi := range v {
			q += vi * linalg.Dot(c.RawRow(i), v)
		}
		return q >= -1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 500
	x := linalg.NewDense(n, 3)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		x.Set(i, 0, a*100)             // perfectly correlated pair at
		x.Set(i, 1, a*0.001)           // wildly different scales
		x.Set(i, 2, rng.NormFloat64()) // independent
	}
	r := CorrelationMatrix(x)
	if !almostEqual(r.At(0, 0), 1, 1e-12) || !almostEqual(r.At(1, 1), 1, 1e-12) {
		t.Fatalf("correlation diagonal not 1")
	}
	if !almostEqual(r.At(0, 1), 1, 1e-9) {
		t.Fatalf("perfectly correlated pair r = %v", r.At(0, 1))
	}
	if math.Abs(r.At(0, 2)) > 0.1 {
		t.Fatalf("independent pair r = %v", r.At(0, 2))
	}
}

func TestCorrelationMatrixConstantColumn(t *testing.T) {
	x := linalg.FromRows([][]float64{{1, 5}, {2, 5}, {3, 5}})
	r := CorrelationMatrix(x)
	if r.At(1, 1) != 1 {
		t.Fatalf("diagonal for constant column = %v", r.At(1, 1))
	}
	if r.At(0, 1) != 0 || r.At(1, 0) != 0 {
		t.Fatalf("constant column must yield zero correlation")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson positive = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Pearson negative = %v", got)
	}
	if got := Pearson(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Fatalf("Pearson with constant = %v", got)
	}
}

func TestPearsonScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		base := Pearson(xs, ys)
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = 42*xs[i] + 17
		}
		return almostEqual(Pearson(scaled, ys), base, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRanks(t *testing.T) {
	cases := []struct {
		in, want []float64
	}{
		{[]float64{10, 20, 30}, []float64{1, 2, 3}},
		{[]float64{30, 10, 20}, []float64{3, 1, 2}},
		{[]float64{1, 1, 2}, []float64{1.5, 1.5, 3}},
		{[]float64{5, 5, 5, 5}, []float64{2.5, 2.5, 2.5, 2.5}},
	}
	for _, tc := range cases {
		if got := Ranks(tc.in); !linalg.VecEqual(got, tc.want, 0) {
			t.Fatalf("Ranks(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSpearman(t *testing.T) {
	// Monotone nonlinear relationship: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Spearman monotone = %v", got)
	}
	if p := Pearson(xs, ys); p >= 1-1e-9 {
		t.Fatalf("Pearson on cubic should be < 1, got %v", p)
	}
}
