package store

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/knn"
)

// naiveSearchRange is the scalar reference for the blocked scan: the
// pre-optimization per-point loop — every live point offered straight to
// the collector, no threshold pruning, no prefix early-abandon, no ×8
// kernel, sequential — followed by the same exact rescore. The blocked,
// threshold-pruned, prefix-abandoning, possibly parallel production scan
// must reproduce it bit for bit at every budget. dead is ascending.
func naiveSearchRange(s *Store, q []float64, lo, hi, k, rescore int, dead []int) []knn.Neighbor {
	isDead := map[int]bool{}
	for _, i := range dead {
		if i >= lo && i < hi {
			isDead[i] = true
		}
	}
	p := s.getPlan(q)
	defer s.putPlan(p)
	c := knn.NewCollector(min(max(rescore, k), hi-lo-len(isDead)))
	for i := lo; i < hi; i++ {
		if !isDead[i] {
			c.Offer(i, s.scoreAt(p, i))
		}
	}
	cand := c.Results()
	e := knn.Euclidean{}
	for t := range cand {
		cand[t].Dist = e.Distance(s.exactMat.RawRow(cand[t].Index), q)
	}
	knn.SortNeighbors(cand)
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand
}

// prefixTestDims are the widths the scan property test runs at, one per
// state of the early-abandon pass: disabled (d < 64), the 32-code prefix,
// and the 64-code prefix with a code row that is not a multiple of the
// kernels' 16-code step.
var prefixTestDims = []int{40, 64, 130}

// TestBlockedScanBitIdenticalToNaive is the property test of the scan:
// across the store variant matrix at every width in prefixTestDims, every
// budget in {k, 2k, n} and worker count in {1, 2, 3} must return exactly
// the neighbors of the naive per-point loop, distances bit-identical —
// with no dead rows on even queries, and every fifth row dead on odd ones.
func TestBlockedScanBitIdenticalToNaive(t *testing.T) {
	n, k := 3000, 10
	var everyFifth []int
	for i := 2; i < n; i += 5 {
		everyFifth = append(everyFifth, i)
	}
	for _, d := range prefixTestDims {
		data, queries := testData(t, n, 6, d, 41)
		for name, cfg := range storeVariants(data) {
			s := buildStore(t, data, cfg)
			for qi := 0; qi < queries.Rows(); qi++ {
				q := queries.RawRow(qi)
				dead := everyFifth[:qi%2*len(everyFifth)]
				for _, budget := range []int{k, 2 * k, n} {
					want := naiveSearchRange(s, q, 0, n, k, budget, dead)
					for _, workers := range []int{1, 2, 3} {
						got, rescored := s.SearchLive(q, 0, n, k, budget, workers, dead)
						if live := n - len(dead); rescored != min(budget, live) {
							t.Fatalf("%s d=%d q=%d budget=%d w=%d: rescored %d candidates, want %d",
								name, d, qi, budget, workers, rescored, min(budget, live))
						}
						if len(got) != len(want) {
							t.Fatalf("%s d=%d q=%d budget=%d w=%d: %d neighbors, want %d",
								name, d, qi, budget, workers, len(got), len(want))
						}
						for r := range got {
							if got[r].Index != want[r].Index ||
								math.Float64bits(got[r].Dist) != math.Float64bits(want[r].Dist) {
								t.Fatalf("%s d=%d q=%d budget=%d w=%d rank %d: got (%d, %x), want (%d, %x)",
									name, d, qi, budget, workers, r,
									got[r].Index, math.Float64bits(got[r].Dist),
									want[r].Index, math.Float64bits(want[r].Dist))
							}
						}
					}
				}
			}
		}
	}
}

// TestVariantMatrixCoversPrefixStates guards the property test's reach:
// prefixTestDims must include a width where the early-abandon prefix is
// disabled and one for each prefix width, or the test above silently loses
// part of its subject.
func TestVariantMatrixCoversPrefixStates(t *testing.T) {
	seen := map[int]bool{}
	for _, d := range prefixTestDims {
		data, _ := testData(t, 200, 1, d, 43)
		for _, cfg := range storeVariants(data) {
			seen[buildStore(t, data, cfg).PrefixDims()] = true
		}
	}
	for _, P := range []int{0, 32, 64} {
		if !seen[P] {
			t.Errorf("no store in the variant matrix has a %d-code prefix; covered: %v", P, seen)
		}
	}
}

// TestScanSegmentTailResidues holds the ×8-then-unitary shape of both block
// kinds to the scalar loop at every residue: segment lengths 1…17 (zero to
// two ×8 groups plus every tail) and 256+{0…7} (a whole block, then a tail
// block), at an aligned and an unaligned start. Each length runs through
// scanBlockFull, scanBlockPrefix and scanSegment — whose second block is a
// prefix block on the 256+r lengths — from the same pre-filled collector,
// so the prefix bound has something to prune against; the admitted
// candidates must equal the scalar loop's bit for bit.
func TestScanSegmentTailResidues(t *testing.T) {
	n, d, budget := 700, 64, 5
	data, queries := testData(t, n, 3, d, 67)
	var lengths []int
	for L := 1; L <= 17; L++ {
		lengths = append(lengths, L)
	}
	for r := 0; r < 8; r++ {
		lengths = append(lengths, scanBlockRows+r)
	}
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		if s.PrefixDims() == 0 {
			t.Fatalf("%s: prefix disabled at d=%d", name, d)
		}
		sc := s.getScratch()
		for qi := 0; qi < queries.Rows(); qi++ {
			p := s.getPlan(queries.RawRow(qi))
			// prefilled returns a full collector holding the scalar scan of
			// the rows no segment below touches.
			prefilled := func() *knn.Collector {
				c := knn.NewCollector(budget)
				for i := 400; i < n; i++ {
					c.Offer(i, s.scoreAt(p, i))
				}
				return c
			}
			for _, lo := range []int{0, 3} {
				for _, L := range lengths {
					hi := lo + L
					want := prefilled()
					for i := lo; i < hi; i++ {
						want.Offer(i, s.scoreAt(p, i))
					}
					paths := map[string]func(c *knn.Collector){
						"scanSegment": func(c *knn.Collector) { s.scanSegment(p, lo, hi, c) },
					}
					if L <= scanBlockRows {
						paths["scanBlockFull"] = func(c *knn.Collector) { s.scanBlockFull(p, sc, lo, hi, c) }
						paths["scanBlockPrefix"] = func(c *knn.Collector) { s.scanBlockPrefix(p, sc, lo, hi, c) }
					}
					for path, scan := range paths {
						c := prefilled()
						scan(c)
						got, ref := c.Results(), want.Results()
						if len(got) != len(ref) {
							t.Fatalf("%s %s q=%d [%d,%d): %d candidates, want %d", name, path, qi, lo, hi, len(got), len(ref))
						}
						for r := range got {
							if got[r].Index != ref[r].Index || math.Float64bits(got[r].Dist) != math.Float64bits(ref[r].Dist) {
								t.Fatalf("%s %s q=%d [%d,%d) rank %d: got %+v, want %+v", name, path, qi, lo, hi, r, got[r], ref[r])
							}
						}
					}
				}
			}
			s.putPlan(p)
		}
		s.scratchPool.Put(sc)
	}
}

// TestSearchRangeWorkersClampsAndMerges exercises the worker clamp (a
// range shorter than minSegmentRows·2 must degrade to one segment) and
// unaligned worker counts against odd ranges.
func TestSearchRangeWorkersClampsAndMerges(t *testing.T) {
	n, d, k := 2600, 32, 5
	data, queries := testData(t, n, 4, d, 47)
	s := buildStore(t, data, BuildConfig{Precision: Int8})
	q := queries.RawRow(0)
	want := naiveSearchRange(s, q, 100, n-100, k, 3*k, nil)
	for _, workers := range []int{0, 1, 2, 7, 100} {
		got, _ := s.SearchRangeWorkers(q, 100, n-100, k, 3*k, workers)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("workers=%d rank %d: got %+v, want %+v", workers, r, got[r], want[r])
			}
		}
	}
}

// TestVarianceOrderIsPermutation pins VarianceOrder's contract: a valid
// permutation, sorted by descending variance with deterministic ties.
func TestVarianceOrderIsPermutation(t *testing.T) {
	d := 9
	acc := NewScaleAccumulator(d)
	rng := rand.New(rand.NewSource(51))
	// Dimension j gets standard deviation ~ j for even j, 0 for odd j
	// (constant dims), so the expected order is 8, 6, 4, 2, then the
	// zero-variance dims in index order.
	for i := 0; i < 500; i++ {
		row := make([]float64, d)
		for j := 0; j < d; j += 2 {
			row[j] = float64(j) * rng.NormFloat64()
		}
		for j := 1; j < d; j += 2 {
			row[j] = 7
		}
		acc.Add(row)
	}
	perm := acc.VarianceOrder()
	seen := make([]bool, d)
	for _, j := range perm {
		if j < 0 || j >= d || seen[j] {
			t.Fatalf("VarianceOrder %v is not a permutation of [0,%d)", perm, d)
		}
		seen[j] = true
	}
	wantHead := []int{8, 6, 4, 2}
	for i, w := range wantHead {
		if perm[i] != w {
			t.Fatalf("VarianceOrder head %v, want %v first", perm[:4], wantHead)
		}
	}
	// Zero-variance dims keep ascending index order (stable ties).
	tail := perm[5:]
	for i := 1; i < len(tail); i++ {
		if tail[i-1] >= tail[i] {
			t.Fatalf("VarianceOrder tie-break not ascending: %v", perm)
		}
	}
}

// TestBuildWithVarianceOrderStaysExact builds a store under the
// variance-descending permutation and checks the full-budget path is
// still bit-identical to exact search — permutations reorder storage,
// never results — and that the prefix pass engages.
func TestBuildWithVarianceOrderStaysExact(t *testing.T) {
	n, d, k := 1500, 64, 8
	data, queries := testData(t, n, 6, d, 53)
	acc := NewScaleAccumulator(d)
	for i := 0; i < n; i++ {
		acc.Add(data.RawRow(i))
	}
	s := buildStore(t, data, BuildConfig{Precision: Int8, Perm: acc.VarianceOrder()})
	if s.PrefixDims() == 0 {
		t.Fatal("expected the early-abandon prefix to be enabled at d=64")
	}
	want := knn.SearchSetBatch(data, queries, k, knn.Euclidean{}, false)
	for qi := 0; qi < queries.Rows(); qi++ {
		got := s.Search(queries.RawRow(qi), k, n)
		for r := range got {
			if got[r].Index != want[qi][r].Index ||
				math.Float64bits(got[r].Dist) != math.Float64bits(want[qi][r].Dist) {
				t.Fatalf("query %d rank %d: got (%d, %x), want (%d, %x)", qi, r,
					got[r].Index, math.Float64bits(got[r].Dist),
					want[qi][r].Index, math.Float64bits(want[qi][r].Dist))
			}
		}
	}
}

// TestStressSearchBatchDropExactPages interleaves SearchRange (with and
// without intra-query workers) and DropExactPages on one shared store — DropExactPages was previously only exercised
// sequentially. Under -race this is the concurrency contract of the scan
// caches and the madvise path: dropped exact pages must refault
// transparently mid-rescore, never corrupt results.
func TestStressSearchBatchDropExactPages(t *testing.T) {
	n, d, k := 2500, 64, 5
	data, queries := testData(t, n, 8, d, 59)
	s := buildStore(t, data, BuildConfig{Precision: Int8})
	want := knn.SearchSetBatch(data, queries, k, knn.Euclidean{}, false)

	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	// Two SearchRange loops at different worker counts.
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for qi := 0; qi < queries.Rows(); qi++ {
					got, _ := s.SearchRangeWorkers(queries.RawRow(qi), 0, n, k, n, workers)
					for r := range got {
						if got[r] != want[qi][r] {
							errs <- "SearchRangeWorkers diverged from exact under concurrency"
							return
						}
					}
				}
			}
		}(w)
	}
	// A DropExactPages loop, yanking the rescore region's residency the
	// whole time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < 4*iters; it++ {
			s.DropExactPages()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
