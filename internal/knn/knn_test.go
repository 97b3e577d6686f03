package knn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func randMatrix(rng *rand.Rand, n, d int) *linalg.Dense {
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestMetricsKnownValues(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	cases := []struct {
		m    Metric
		want float64
		name string
	}{
		{Euclidean{}, 5, "L2"},
		{SquaredEuclidean{}, 25, "L2sq"},
		{Manhattan{}, 7, "L1"},
		{Chebyshev{}, 4, "Linf"},
		{NewMinkowski(2), 5, "L2"},
		{NewMinkowski(1), 7, "L1"},
	}
	for _, tc := range cases {
		if got := tc.m.Distance(a, b); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("%s(a,b) = %v, want %v", tc.m.Name(), got, tc.want)
		}
		if tc.m.Name() != tc.name {
			t.Fatalf("name = %q, want %q", tc.m.Name(), tc.name)
		}
	}
}

func TestMetricAxioms(t *testing.T) {
	metrics := []Metric{Euclidean{}, SquaredEuclidean{}, Manhattan{}, Chebyshev{}, NewMinkowski(0.5), NewMinkowski(3), Cosine{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(10)
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for _, m := range metrics {
			dab := m.Distance(a, b)
			// Non-negative, symmetric, identity yields 0 (cosine of a
			// nonzero vector with itself).
			if dab < 0 || math.Abs(dab-m.Distance(b, a)) > 1e-12 {
				return false
			}
			if _, isCos := m.(Cosine); isCos {
				continue // self-distance checked separately for zero vectors
			}
			if m.Distance(a, a) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityForTrueMetrics(t *testing.T) {
	metrics := []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, NewMinkowski(1.5)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(8)
		a, b, c := make([]float64, d), make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		for _, m := range metrics {
			if m.Distance(a, c) > m.Distance(a, b)+m.Distance(b, c)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionalMinkowskiViolatesTriangle(t *testing.T) {
	// A classic witness that L_0.5 is not a true metric.
	m := NewMinkowski(0.5)
	a := []float64{0, 0}
	b := []float64{1, 0}
	c := []float64{1, 1}
	if m.Distance(a, c) <= m.Distance(a, b)+m.Distance(b, c) {
		t.Fatalf("expected triangle violation: d(a,c)=%v, d(a,b)+d(b,c)=%v",
			m.Distance(a, c), m.Distance(a, b)+m.Distance(b, c))
	}
}

func TestMinkowskiValidation(t *testing.T) {
	for _, p := range []float64{0, -1, math.Inf(1), math.NaN()} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMinkowski(%v) must panic", p)
				}
			}()
			NewMinkowski(p)
		}()
	}
}

func TestCosine(t *testing.T) {
	if got := (Cosine{}).Distance([]float64{1, 0}, []float64{2, 0}); math.Abs(got) > 1e-12 {
		t.Fatalf("parallel cosine distance = %v", got)
	}
	if got := (Cosine{}).Distance([]float64{1, 0}, []float64{0, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("orthogonal cosine distance = %v", got)
	}
	if got := (Cosine{}).Distance([]float64{1, 0}, []float64{-3, 0}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("opposite cosine distance = %v", got)
	}
	if got := (Cosine{}).Distance([]float64{0, 0}, []float64{1, 2}); got != 1 {
		t.Fatalf("zero-vector cosine distance = %v", got)
	}
}

func TestMetricLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Euclidean{}.Distance([]float64{1}, []float64{1, 2})
}

func TestCollector(t *testing.T) {
	c := NewCollector(2)
	if c.Bound() != math.Inf(1) || c.Full() {
		t.Fatalf("fresh collector state wrong")
	}
	if !c.Offer(0, 5) || !c.Offer(1, 3) {
		t.Fatalf("initial offers rejected")
	}
	if !c.Full() || c.Bound() != 5 {
		t.Fatalf("after fill: full=%v bound=%v", c.Full(), c.Bound())
	}
	if c.Offer(2, 7) {
		t.Fatalf("worse candidate admitted")
	}
	if !c.Offer(3, 1) {
		t.Fatalf("better candidate rejected")
	}
	res := c.Results()
	if len(res) != 2 || res[0].Index != 3 || res[1].Index != 1 {
		t.Fatalf("results = %v", res)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("k=0 must panic")
		}
	}()
	NewCollector(0)
}

func TestSearchHandComputed(t *testing.T) {
	data := linalg.FromRows([][]float64{
		{0, 0},
		{1, 0},
		{5, 5},
		{0.5, 0},
	})
	got := Search(data, []float64{0, 0}, 2, Euclidean{}, -1)
	if got[0].Index != 0 || got[0].Dist != 0 {
		t.Fatalf("nearest = %v", got[0])
	}
	if got[1].Index != 3 || math.Abs(got[1].Dist-0.5) > 1e-12 {
		t.Fatalf("second = %v", got[1])
	}
	// Excluding the exact match promotes the others.
	got = Search(data, []float64{0, 0}, 2, Euclidean{}, 0)
	if got[0].Index != 3 || got[1].Index != 1 {
		t.Fatalf("excluded search = %v", got)
	}
}

func TestSearchAgainstNaiveSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randMatrix(rng, 200, 8)
	m := Manhattan{}
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, 8)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(10)
		got := Search(data, q, k, m, -1)
		// Naive: compute all distances and pick smallest k.
		type pair struct {
			i int
			d float64
		}
		all := make([]pair, data.Rows())
		for i := range all {
			all[i] = pair{i, m.Distance(data.RawRow(i), q)}
		}
		for i := 0; i < k; i++ { // selection sort prefix
			best := i
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[best].d {
					best = j
				}
			}
			all[i], all[best] = all[best], all[i]
		}
		for i := 0; i < k; i++ {
			if math.Abs(got[i].Dist-all[i].d) > 1e-12 {
				t.Fatalf("trial %d: rank %d dist %v != %v", trial, i, got[i].Dist, all[i].d)
			}
		}
	}
}

func TestSearchPanics(t *testing.T) {
	data := linalg.NewDense(3, 2)
	for name, fn := range map[string]func(){
		"dim mismatch": func() { Search(data, []float64{1}, 1, Euclidean{}, -1) },
		"k zero":       func() { Search(data, []float64{1, 2}, 0, Euclidean{}, -1) },
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

func TestSearchSetSelfExclude(t *testing.T) {
	data := linalg.FromRows([][]float64{{0}, {1}, {2}})
	res := SearchSet(data, data, 1, Euclidean{}, true)
	if res[0][0].Index == 0 || res[1][0].Index == 1 {
		t.Fatalf("self not excluded: %v", res)
	}
	res = SearchSet(data, data, 1, Euclidean{}, false)
	for i := range res {
		if res[i][0].Index != i || res[i][0].Dist != 0 {
			t.Fatalf("self search should return self: %v", res)
		}
	}
}

func TestSearchFewerPointsThanK(t *testing.T) {
	data := linalg.FromRows([][]float64{{0}, {1}})
	got := Search(data, []float64{0}, 5, Euclidean{}, -1)
	if len(got) != 2 {
		t.Fatalf("expected all %d points, got %d", 2, len(got))
	}
}

func TestOverlap(t *testing.T) {
	a := []Neighbor{{1, 0}, {2, 0}, {3, 0}}
	b := []Neighbor{{3, 0}, {4, 0}, {5, 0}}
	if got := Overlap(a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("Overlap = %v", got)
	}
	if got := Overlap(a, a); got != 1 {
		t.Fatalf("self overlap = %v", got)
	}
	if got := Overlap(nil, a); got != 0 {
		t.Fatalf("nil overlap = %v", got)
	}
	// Unequal lengths normalize by the longer list.
	if got := Overlap(a[:1], a); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("asymmetric overlap = %v", got)
	}
}

func TestRelativeContrastCollapsesWithDimensionality(t *testing.T) {
	// The §1.1 phenomenon: on i.i.d. uniform data, relative contrast
	// shrinks as dimensionality grows.
	rng := rand.New(rand.NewSource(4))
	contrast := func(d int) float64 {
		n := 500
		data := linalg.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				data.Set(i, j, rng.Float64())
			}
		}
		queries := data.SliceRows([]int{0, 1, 2, 3, 4})
		rep, err := RelativeContrast(data, queries, Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanRelativeContrast
	}
	low := contrast(2)
	high := contrast(200)
	if high >= low/3 {
		t.Fatalf("contrast did not collapse: d=2 %v, d=200 %v", low, high)
	}
}

func TestRelativeContrastErrors(t *testing.T) {
	data := linalg.FromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := RelativeContrast(data, linalg.NewDense(1, 3), Euclidean{}); err == nil {
		t.Fatalf("dimension mismatch accepted")
	}
	// Query coincides with every point: rejected.
	q := linalg.FromRows([][]float64{{0, 0}})
	if _, err := RelativeContrast(data, q, Euclidean{}); err == nil {
		t.Fatalf("degenerate query accepted")
	}
}

func TestRelativeContrastReportFields(t *testing.T) {
	data := linalg.FromRows([][]float64{{0}, {1}, {3}})
	q := linalg.FromRows([][]float64{{0}})
	rep, err := RelativeContrast(data, q, Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	// Dmin=1, Dmax=3 → rel contrast 2, ratio 3.
	if math.Abs(rep.MeanRelativeContrast-2) > 1e-12 || math.Abs(rep.MeanRatio-3) > 1e-12 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MinRelativeContrast != rep.MeanRelativeContrast {
		t.Fatalf("single query: min != mean")
	}
}
