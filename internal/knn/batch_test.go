package knn

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// withProcs runs fn at the given GOMAXPROCS so the parallel collector scans
// are exercised even on single-core machines.
func withProcs(n int, fn func()) {
	saved := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(saved)
	fn()
}

func TestPairwiseSqMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, c := range []struct{ n, nq, d int }{
		{1, 1, 1}, {7, 3, 5}, {40, 11, 166}, {300, 17, 16},
	} {
		data := randMatrix(rng, c.n, c.d)
		queries := randMatrix(rng, c.nq, c.d)
		got := PairwiseSq(data, queries)
		if r, cc := got.Dims(); r != c.nq || cc != c.n {
			t.Fatalf("PairwiseSq dims %dx%d, want %dx%d", r, cc, c.nq, c.n)
		}
		sq := SquaredEuclidean{}
		for i := 0; i < c.nq; i++ {
			for j := 0; j < c.n; j++ {
				want := sq.Distance(queries.RawRow(i), data.RawRow(j))
				if math.Abs(got.At(i, j)-want) > 1e-9*(1+want) {
					t.Fatalf("n=%d d=%d: D²[%d][%d] = %v, want %v", c.n, c.d, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestPairwiseSqSelfIsNonNegative(t *testing.T) {
	// Identical rows hit the clamp: ‖x‖² + ‖x‖² − 2⟨x,x⟩ can round below 0.
	rng := rand.New(rand.NewSource(53))
	data := randMatrix(rng, 64, 166)
	got := PairwiseSq(data, data)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if got.At(i, j) < 0 {
				t.Fatalf("D²[%d][%d] = %v < 0", i, j, got.At(i, j))
			}
		}
	}
}

// TestPairwiseSqPairedNorms pins why the batch engine takes its norms from
// linalg.MulTRowNormsSq: on the product's own summation chain the three
// terms of an identical pair cancel exactly, so the diagonal of a
// self-distance matrix is zero to the bit, and duplicated rows give
// bit-equal columns (and rows) — no rounding-born order among duplicates.
func TestPairwiseSqPairedNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, d := range []int{1, 7, 16, 166} {
		data := randMatrix(rng, 41, d)
		data.Scale(37.5) // large norms: the worst case for cancellation
		copy(data.RawRow(30), data.RawRow(3))
		copy(data.RawRow(40), data.RawRow(3))
		got := PairwiseSq(data, data)
		for i := 0; i < 41; i++ {
			if v := got.At(i, i); v != 0 || math.Signbit(v) {
				t.Fatalf("d=%d: D²[%d][%d] = %v, want exactly +0", d, i, i, v)
			}
			for _, dup := range []int{30, 40} {
				if math.Float64bits(got.At(i, dup)) != math.Float64bits(got.At(i, 3)) {
					t.Fatalf("d=%d: columns 3 and %d differ at row %d: %v vs %v", d, dup, i, got.At(i, 3), got.At(i, dup))
				}
				if math.Float64bits(got.At(dup, i)) != math.Float64bits(got.At(3, i)) {
					t.Fatalf("d=%d: rows 3 and %d differ at column %d", d, dup, i)
				}
			}
		}
	}
}

func TestPairwiseSqDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PairwiseSq(linalg.NewDense(3, 4), linalg.NewDense(2, 5))
}

// TestSearchSetBatchEquivalence is the ISSUE's acceptance equivalence test:
// the batch engine must reproduce SearchSet exactly — same indices, same
// distances, same tie handling — across dimensionalities spanning the tail
// cases of the GEMM kernels.
func TestSearchSetBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	metrics := []Metric{Euclidean{}, SquaredEuclidean{}}
	for _, d := range []int{1, 7, 16, 166} {
		data := randMatrix(rng, 400, d)
		queries := randMatrix(rng, 75, d)
		for _, m := range metrics {
			for _, k := range []int{1, 10} {
				want := SearchSet(data, queries, k, m, false)
				got := SearchSetBatch(data, queries, k, m, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("d=%d metric=%s k=%d: batch differs from scalar", d, m.Name(), k)
				}
				withProcs(4, func() {
					if !reflect.DeepEqual(SearchSetBatch(data, queries, k, m, false), want) {
						t.Fatalf("d=%d metric=%s k=%d: parallel batch differs", d, m.Name(), k)
					}
				})
			}
		}
	}
}

func TestSearchSetBatchSelfExclude(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	data := randMatrix(rng, 300, 16)
	want := SearchSet(data, data, 5, Euclidean{}, true)
	got := SearchSetBatch(data, data, 5, Euclidean{}, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("self-exclude batch differs from scalar")
	}
	for i, res := range got {
		for _, nb := range res {
			if nb.Index == i {
				t.Fatalf("query %d returned itself", i)
			}
		}
	}
}

func TestSearchSetBatchDuplicatesAndTies(t *testing.T) {
	// Integer coordinates make the norm-cache identity exact, so ties between
	// duplicate points must resolve to the same earliest indices as the
	// scalar path.
	rows := [][]float64{
		{3, 4}, {3, 4}, {3, 4}, {0, 0}, {6, 8}, {3, 4}, {0, 0},
	}
	data := linalg.FromRows(rows)
	queries := linalg.FromRows([][]float64{{3, 4}, {0, 0}, {1, 1}})
	for _, k := range []int{1, 3, 5} {
		want := SearchSet(data, queries, k, Euclidean{}, false)
		got := SearchSetBatch(data, queries, k, Euclidean{}, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: ties resolved differently: got %v, want %v", k, got, want)
		}
	}
}

// latticeMatrix draws n points with coordinates on the half-integer lattice
// in [-range, range]: every squared distance is exact in both arithmetics,
// so ties — at rank k, inside the top k, among duplicates — are everywhere.
func latticeMatrix(rng *rand.Rand, n, d, span int, half bool) *linalg.Dense {
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			v := float64(rng.Intn(2*span+1) - span)
			if half {
				v += 0.5 * float64(rng.Intn(2))
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// TestSearchSetBatchEqualsSearchSetOnLattices is the property behind
// SearchSetBatch's "returns exactly what SearchSet returns": on data built
// to tie, the gap test must hand every ambiguous query to the scalar scan,
// whose heap decides ties its own way.
func TestSearchSetBatchEqualsSearchSetOnLattices(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, d := range []int{1, 2, 16} {
		for _, half := range []bool{false, true} {
			span := 3
			if d == 16 {
				span = 1
			}
			data := latticeMatrix(rng, 260, d, span, half)
			for r := 0; r < 40; r++ { // duplicated rows on top of the lattice's own
				copy(data.RawRow(200+r), data.RawRow(rng.Intn(200)))
			}
			queries := latticeMatrix(rng, 30, d, span, half)
			for _, k := range []int{1, 3, 10} {
				for _, m := range []Metric{Euclidean{}, SquaredEuclidean{}} {
					want := SearchSet(data, queries, k, m, false)
					if got := SearchSetBatch(data, queries, k, m, false); !reflect.DeepEqual(got, want) {
						t.Fatalf("d=%d half=%v k=%d %s: batch differs from scalar", d, half, k, m.Name())
					}
					want = SearchSet(data, data, k, m, true)
					if got := SearchSetBatch(data, data, k, m, true); !reflect.DeepEqual(got, want) {
						t.Fatalf("d=%d half=%v k=%d %s: self-excluding batch differs from scalar", d, half, k, m.Name())
					}
				}
			}
		}
	}
}

// TestSearchSetBatchNonFinite: Inf and NaN coordinates poison the norm
// cache; those queries must come back from the scalar scan unchanged.
func TestSearchSetBatchNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	data := randMatrix(rng, 50, 4)
	data.Set(7, 1, math.Inf(1))
	data.Set(19, 2, math.NaN())
	queries := randMatrix(rng, 6, 4)
	queries.Set(2, 0, math.Inf(-1))
	for _, k := range []int{3, 60} {
		want := SearchSet(data, queries, k, Euclidean{}, false)
		got := SearchSetBatch(data, queries, k, Euclidean{}, false)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d result lists, want %d", k, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("k=%d query %d: %d neighbors, want %d", k, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				g, w := got[i][j], want[i][j]
				if g.Index != w.Index || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
					t.Fatalf("k=%d query %d rank %d: got %v, want %v", k, i, j, g, w)
				}
			}
		}
	}
}

// TestNormCacheSlackHolds measures what normCacheSlack bounds. Its comment
// derives (4d+7)·u·(‖q‖²+‖x‖²) for the distance between a pair's norm-cache
// and scalar squared distances — half the band, less the square-root
// margin. The data is the adversarial shape for the identity: a cloud far
// from the origin, where ‖q‖² + ‖x‖² − 2⟨q,x⟩ cancels almost everything.
func TestNormCacheSlackHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sq := SquaredEuclidean{}
	for _, d := range []int{1, 2, 16, 166} {
		for _, offset := range []float64{0, 1, 1e3, 1e6} {
			data := randMatrix(rng, 60, d)
			for i := 0; i < 60; i++ {
				row := data.RawRow(i)
				for j := range row {
					row[j] += offset
				}
			}
			norms := linalg.MulTRowNormsSq(data)
			nc := PairwiseSq(data, data)
			worst := 0.0
			for i := 0; i < 60; i++ {
				for j := 0; j < 60; j++ {
					dev := math.Abs(nc.At(i, j) - sq.Distance(data.RawRow(i), data.RawRow(j)))
					worst = math.Max(worst, dev/(norms[i]+norms[j]))
				}
			}
			derived := float64(4*d+7) * 0x1p-53
			if worst > derived {
				t.Fatalf("d=%d offset=%g: norm-cache and scalar D² differ by %.3g·S, derivation allows %.3g·S", d, offset, worst, derived)
			}
			if 2*derived+8*0x1p-53 > normCacheSlack(d) {
				t.Fatalf("d=%d: normCacheSlack %.3g does not cover 2×%.3g plus the √ margin", d, normCacheSlack(d), derived)
			}
		}
	}
}

func TestSearchSetBatchKLargerThanN(t *testing.T) {
	data := linalg.FromRows([][]float64{{0}, {1}, {2}})
	queries := linalg.FromRows([][]float64{{0.4}})
	got := SearchSetBatch(data, queries, 10, Euclidean{}, false)
	want := SearchSet(data, queries, 10, Euclidean{}, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k>n: got %v, want %v", got, want)
	}
	if len(got[0]) != 3 {
		t.Fatalf("k>n returned %d neighbors, want 3", len(got[0]))
	}
}

func TestSearchSetBatchFallbackMetric(t *testing.T) {
	// Non-Euclidean metrics must route through the scalar path unchanged.
	rng := rand.New(rand.NewSource(61))
	data := randMatrix(rng, 150, 8)
	queries := randMatrix(rng, 20, 8)
	for _, m := range []Metric{Manhattan{}, Chebyshev{}, NewMinkowski(0.5), Cosine{}} {
		want := SearchSet(data, queries, 4, m, false)
		got := SearchSetBatch(data, queries, 4, m, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("metric %s: fallback differs from scalar", m.Name())
		}
		// Four workers over 20 (and 150) queries: the chunked split runs.
		withProcs(4, func() {
			if got := SearchSetBatch(data, queries, 4, m, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("metric %s: chunked parallel fallback differs from serial", m.Name())
			}
			if got := SearchSetBatch(data, data, 3, m, true); !reflect.DeepEqual(got, SearchSet(data, data, 3, m, true)) {
				t.Fatalf("metric %s: chunked parallel self-exclude differs from serial", m.Name())
			}
		})
	}
}

func TestSearchSetBatchPanics(t *testing.T) {
	data := linalg.NewDense(3, 2)
	for name, fn := range map[string]func(){
		"dim mismatch":          func() { SearchSetBatch(data, linalg.NewDense(2, 3), 1, Euclidean{}, false) },
		"k zero":                func() { SearchSetBatch(data, linalg.NewDense(2, 2), 0, Euclidean{}, false) },
		"fallback dim mismatch": func() { SearchSetBatch(data, linalg.NewDense(2, 3), 1, Manhattan{}, false) },
		"fallback k zero":       func() { SearchSetBatch(data, linalg.NewDense(2, 2), 0, Manhattan{}, false) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestCollectorKLargerThanN(t *testing.T) {
	c := NewCollector(10)
	c.Offer(2, 1.5)
	c.Offer(0, 0.5)
	c.Offer(1, 2.5)
	res := c.Results()
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].Index != 0 || res[1].Index != 2 || res[2].Index != 1 {
		t.Fatalf("order wrong: %v", res)
	}
	if c.Full() {
		t.Fatal("collector with 3 of 10 must not report full")
	}
}

func TestCollectorTieBreakDeterminism(t *testing.T) {
	// Equal distances sort by ascending index regardless of offer order.
	offer := func(order []int) []Neighbor {
		c := NewCollector(3)
		for _, i := range order {
			c.Offer(i, 1.0)
		}
		return c.Results()
	}
	a := offer([]int{5, 1, 9})
	b := offer([]int{9, 5, 1})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tie order differs: %v vs %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Index > a[i].Index {
			t.Fatalf("ties not index-sorted: %v", a)
		}
	}
	// A full collector rejects an equal-distance late arrival (first come,
	// first kept) — both paths must share this rule for equivalence.
	c := NewCollector(1)
	if !c.Offer(4, 2.0) {
		t.Fatal("first offer rejected")
	}
	if c.Offer(0, 2.0) {
		t.Fatal("equal-distance late offer admitted")
	}
}

func TestSearchExcludeWithDuplicates(t *testing.T) {
	// Excluding one duplicate must still return its twins.
	data := linalg.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}})
	got := Search(data, []float64{1, 1}, 2, Euclidean{}, 1)
	if got[0].Index != 0 || got[1].Index != 2 {
		t.Fatalf("exclude with duplicates: %v", got)
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatalf("duplicate distance %v != 0", nb.Dist)
		}
	}
}

// benchKNNData is the acceptance-criteria workload: the paper's pendigits-like
// scale, n=6598 points at the musk-like d=166, 50 queries, k=10.
func benchKNNData(b *testing.B) (data, queries *linalg.Dense) {
	b.Helper()
	rng := rand.New(rand.NewSource(101))
	data = randMatrix(rng, 6598, 166)
	queries = randMatrix(rng, 50, 166)
	return data, queries
}

func BenchmarkSearchSetBatch6598x166(b *testing.B) {
	data, queries := benchKNNData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SearchSetBatch(data, queries, 10, Euclidean{}, false)
	}
}

func BenchmarkPairwiseSq1024x166(b *testing.B) {
	rng := rand.New(rand.NewSource(103))
	data := randMatrix(rng, 1024, 166)
	queries := randMatrix(rng, 128, 166)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairwiseSq(data, queries)
	}
}
