package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/knn"
	"repro/internal/linalg"
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
//
// SearchLive clamps workers to GOMAXPROCS, so the test raises it to at
// least 3 for its duration: workers 2 and 3 then split the rows into 2 and
// 3 real segments on any box, each sweeping its own pending prefix blocks.
func TestBlockedScanBitIdenticalToNaive(t *testing.T) {
	n, k := 3000, 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	for _, w := range []int{1, 2, 3} {
		if got := scanWorkers(n, w); got != w {
			t.Fatalf("%d workers over %d rows run %d segments", w, n, got)
		}
	}
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
						before := s.Stats().Rescored
						got, cand := s.SearchLive(q, 0, n, k, budget, workers, dead)
						refined := int(s.Stats().Rescored - before)
						if live := n - len(dead); refined < min(k, live) || refined > cand || cand > min(budget, live) {
							t.Fatalf("%s d=%d q=%d budget=%d w=%d: %d candidates and %d refined, want %d ≤ refined ≤ candidates ≤ %d",
								name, d, qi, budget, workers, cand, refined, min(k, live), min(budget, live))
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

// TestPrefixBoundAdmissible holds the argument written at
// linalg.PrefixBounds to the stores the scan tests run on: at every width
// in prefixTestDims that has a prefix, under the whole variant matrix, no
// row's prefix bound exceeds its full phase-1 estimate (combine). The
// queries are held-out rows as they are; stored rows decoded from their
// codes, where the suffix's squared terms vanish for that row and only the
// query-rounding slack Tstep·csumSuf keeps its bound below; and held-out
// rows moved 10 and 1000 code ranges off the data, dimension by dimension
// in alternating directions, where the a2 and Tmin·csum terms dwarf the
// rest.
func TestPrefixBoundAdmissible(t *testing.T) {
	n := 3000
	lbs, mask := make([]float64, n), make([]uint64, (n+63)/64)
	for _, d := range prefixTestDims {
		data, queries := testData(t, n, 4, d, 47)
		for name, cfg := range storeVariants(data) {
			s := buildStore(t, data, cfg)
			if s.PrefixDims() == 0 {
				continue
			}
			steps := s.Steps()
			var qs [][]float64
			for qi := 0; qi < queries.Rows(); qi++ {
				qs = append(qs, s.DequantRow(qi*701))
				for _, ranges := range []float64{0, 10, -1000} {
					q := append([]float64(nil), queries.RawRow(qi)...)
					for j := range q {
						q[j] += ranges * maxCode * steps[j] * float64(1-2*(j%2))
					}
					qs = append(qs, q)
				}
			}
			for qi, q := range qs {
				p := s.getPlan(q)
				linalg.PrefixBounds(&p.pre, s.pref8, s.snormP, s.csumP, s.csumSuf, math.Inf(1), lbs, mask)
				for i, lb := range lbs {
					if est := s.scoreAt(p, i); !(lb <= est) {
						t.Fatalf("%s d=%d query %d: row %d has prefix bound %v above its estimate %v",
							name, d, qi, i, lb, est)
					}
				}
				s.putPlan(p)
			}
		}
	}
}

// TestScanSegmentTailResidues holds the ×8-then-unitary shape of both block
// kinds to the scalar loop at every residue: segment lengths 1…17 (zero to
// two ×8 groups plus every tail) and 256+{0…7} (a whole block, then a tail
// block), at an aligned and an unaligned start. Each length runs through
// scanBlockFull, scanBlockMark then scanBlockResolve, and scanSegment —
// whose second block is a pending prefix block on the 256+r lengths — from
// the same pre-filled collector, so the prefix bound has something to
// prune against; the admitted candidates must equal the scalar loop's bit
// for bit.
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
		sc := s.getScratch(0)
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
						paths["scanBlockMark+scanBlockResolve"] = func(c *knn.Collector) {
							s.scanBlockMark(p, &sc.marks[0], lo, hi, c.Bound())
							s.scanBlockResolve(p, sc, &sc.marks[0], c)
						}
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

// TestScanSegmentPendingBlocks holds the one-block-late resolve to the
// scalar loop, bit for bit, where the pipeline has state to get wrong:
//   - a segment that ends on a pending prefix block, which only the final
//     resolve offers;
//   - a one-block segment of five rows, which is marked and then resolved
//     only by that final resolve;
//   - a prefix block followed by a holdoff full block, which must run only
//     after the pending block is resolved;
//   - the same with every third row dead, so dead rows sit among a pending
//     block's marks and the dead list must still be walked in row order.
//
// Each collector starts full of budget entries at a distance no row
// reaches, so the bound is loose and the pending blocks admit rows. Then
// scanBlockResolve alone must fully score exactly the marked rows whose
// prefix bound is below the collector's bound at that moment, however
// much looser the bound the block was marked against.
func TestScanSegmentPendingBlocks(t *testing.T) {
	n, d := 1200, 64
	data, queries := testData(t, n, 3, d, 71)
	var everyThird []int
	for i := 1; i < n; i += 3 {
		everyThird = append(everyThird, i)
	}
	cases := []struct {
		name           string
		lo, hi, budget int
		dead           []int
	}{
		{"ends on a pending block", 3, 3 + scanBlockRows + 200, 32, nil},
		{"one-block segment", 3, 8, 2, nil},
		{"prefix then holdoff full block", 0, 4 * scanBlockRows, 200, nil},
		{"dead rows among pending marks", 0, 4 * scanBlockRows, 200, everyThird},
	}
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		if s.PrefixDims() == 0 {
			t.Fatalf("%s: prefix disabled at d=%d", name, d)
		}
		for qi := 0; qi < queries.Rows(); qi++ {
			p := s.getPlan(queries.RawRow(qi))
			// loose returns a full collector of budget phantom entries
			// beyond the store's rows.
			loose := func(budget int) *knn.Collector {
				c := knn.NewCollector(budget)
				for i := 0; i < budget; i++ {
					c.Offer(n+i, math.MaxFloat64)
				}
				return c
			}
			for _, tc := range cases {
				want := loose(tc.budget)
				isDead := map[int]bool{}
				for _, i := range tc.dead {
					isDead[i] = true
				}
				for i := tc.lo; i < tc.hi; i++ {
					if !isDead[i] {
						want.Offer(i, s.scoreAt(p, i))
					}
				}
				c := loose(tc.budget)
				p.dead = tc.dead
				s.scanSegment(p, tc.lo, tc.hi, c)
				p.dead = nil
				got, ref := c.Results(), want.Results()
				if len(got) != len(ref) {
					t.Fatalf("%s %s q=%d: %d candidates, want %d", name, tc.name, qi, len(got), len(ref))
				}
				for r := range got {
					if got[r].Index != ref[r].Index || math.Float64bits(got[r].Dist) != math.Float64bits(ref[r].Dist) {
						t.Fatalf("%s %s q=%d rank %d: got %+v, want %+v", name, tc.name, qi, r, got[r], ref[r])
					}
				}
			}

			// Mark rows [256, 512) against the phantom bound, tighten the
			// collector with rows [0, 256) as the previous block's resolve
			// would, then resolve.
			sc := s.getScratch(0)
			c, ref := loose(32), loose(32)
			m := &sc.marks[0]
			s.scanBlockMark(p, m, scanBlockRows, 2*scanBlockRows, c.Bound())
			for i := 0; i < scanBlockRows; i++ {
				c.Offer(i, s.scoreAt(p, i))
				ref.Offer(i, s.scoreAt(p, i))
			}
			want := 0
			for j, lb := range m.lbs {
				if lb < ref.Bound() {
					want++
					ref.Offer(scanBlockRows+j, s.scoreAt(p, scanBlockRows+j))
				}
			}
			if got := s.scanBlockResolve(p, sc, m, c); got != want {
				t.Fatalf("%s q=%d: scanBlockResolve scored %d rows, want %d below the bound of their moment", name, qi, got, want)
			}
			s.scratchPool.Put(sc)
			s.putPlan(p)
		}
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

// refineTestStores returns the stores TestRescoreBoundAdmissible runs on at
// width d: the variant matrix; a store built with external scales narrower
// than the data, so values clamp at both ends of the code range, and with
// one varying dimension given step 0, so its codes carry nothing; and a
// store whose data has a constant dimension.
func refineTestStores(t *testing.T, data *linalg.Dense) map[string]*Store {
	n, d := data.Dims()
	stores := map[string]*Store{}
	for name, cfg := range storeVariants(data) {
		stores[name] = buildStore(t, data, cfg)
	}
	acc := NewScaleAccumulator(d)
	for i := 0; i < n; i++ {
		acc.Add(data.RawRow(i))
	}
	mins, steps := acc.Scales(Int8)
	for j := range mins {
		mins[j] += 0.2 * maxCode * steps[j]
		steps[j] *= 0.5
	}
	mins[1] += 0.3 * maxCode * steps[1]
	steps[1] = 0
	stores["clamped"] = buildStore(t, data, BuildConfig{Perm: acc.VarianceOrder(), Mins: mins, Steps: steps})
	constant := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		copy(constant.RawRow(i), data.RawRow(i))
		constant.RawRow(i)[2] = 2.5
	}
	stores["constant-dim"] = buildStore(t, constant, BuildConfig{})
	return stores
}

// refineTestQueries returns the queries TestRescoreBoundAdmissible and
// TestRefineCutAdmissible run on a refineTestStores store s, given the
// held-out rows of its data: TestPrefixBoundAdmissible's — held-out rows
// as they are, stored rows decoded from their codes, and held-out rows
// moved 10 and 1000 code ranges off the data — plus the worst-encoded row
// moved 1, 10, 100 and 1000 times its own quantization error further along
// that error. There the triangle inequality under the bound is tight: the
// row sits exactly ‖x − x̂‖ closer to the query than its codes do, and that
// distance is the store's radius.
func refineTestQueries(s *Store, queries *linalg.Dense) [][]float64 {
	e := knn.Euclidean{}
	steps := s.Steps()
	var qs [][]float64
	for qi := 0; qi < queries.Rows(); qi++ {
		qs = append(qs, s.DequantRow(qi*701))
		for _, ranges := range []float64{0, 10, -1000} {
			q := append([]float64(nil), queries.RawRow(qi)...)
			for j := range q {
				q[j] += ranges * maxCode * steps[j] * float64(1-2*(j%2))
			}
			qs = append(qs, q)
		}
	}
	worst, worstErr := 0, -1.0
	for i := 0; i < s.Len(); i++ {
		if err := e.Distance(s.DequantRow(i), s.exactMat.RawRow(i)); err > worstErr {
			worst, worstErr = i, err
		}
	}
	x, xh := s.exactMat.RawRow(worst), s.DequantRow(worst)
	for _, mult := range []float64{1, 10, 100, 1000} {
		q := make([]float64, len(x))
		for j := range q {
			q[j] = x[j] + mult*(x[j]-xh[j])
		}
		qs = append(qs, q)
	}
	return qs
}

// TestRescoreBoundAdmissible holds the argument written at refineBound to
// every row of every refineTestStores store, at every width in
// prefixTestDims, on the refineTestQueries: no row's lower bound exceeds
// its computed exact distance from the query.
func TestRescoreBoundAdmissible(t *testing.T) {
	n := 3000
	e := knn.Euclidean{}
	for _, d := range prefixTestDims {
		data, queries := testData(t, n, 4, d, 47)
		for name, s := range refineTestStores(t, data) {
			if !(s.radius > 0) {
				t.Fatalf("%s d=%d: store has no error radius", name, d)
			}
			for qi, q := range refineTestQueries(s, queries) {
				p := s.getPlan(q)
				for i := 0; i < n; i++ {
					lb := s.refineBound(p, s.scoreAt(p, i))
					if dist := e.Distance(s.exactMat.RawRow(i), q); !(lb <= dist) {
						t.Fatalf("%s d=%d query %d: row %d has refine bound %v above its distance %v (radius %v)",
							name, d, qi, i, lb, dist, s.radius)
					}
				}
				s.putPlan(p)
			}
		}
	}
}

// TestRefineCutAdmissible holds the argument written at refineCut to every
// refineTestStores store, at every width in prefixTestDims, on the
// refineTestQueries, at k = 1 and 10. With the cut taken from the k
// smallest estimates of the store — the tightest cut any segment reaches —
// an estimate at the cut has a refine bound above U·(1+δ)², the largest
// stop threshold the k rows allow, in the computed floats; every row the
// full-budget refine step reads under its stop has an estimate below the
// cut; and SearchLive at full budget, cut and stop on, returns the rows of the
// radius-free refine, which reads every candidate (naiveSearchRange),
// distance bits included, at one worker and at two. Among the stores is
// "clamped", whose external scales give it a radius near 24 against ≈ 0.4
// on the fitted ones, so its cut is nearly off.
func TestRefineCutAdmissible(t *testing.T) {
	n := 3000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, d := range prefixTestDims {
		data, queries := testData(t, n, 4, d, 47)
		for name, s := range refineTestStores(t, data) {
			for qi, q := range refineTestQueries(s, queries) {
				for _, k := range []int{1, 10} {
					p := s.getPlan(q)
					all := knn.NewCollector(n)
					for i := 0; i < n; i++ {
						all.Offer(i, s.scoreAt(p, i))
					}
					cand := all.Results()
					cut := s.refineCut(p, cand[k-1].Dist)
					u := math.Sqrt(cand[k-1].Dist+p.refE) + s.radius
					if lb := s.refineBound(p, cut); !(lb > u*(1+rescoreSlack)*(1+rescoreSlack)) {
						t.Fatalf("%s d=%d query %d k=%d: an estimate at the cut %v has refine bound %v, not above U·(1+δ)² for U = %v",
							name, d, qi, k, cut, lb, u)
					}
					for r, c := range s.refine(p, q, slices.Clone(cand), k) {
						if !(cand[r].Dist < cut) {
							t.Fatalf("%s d=%d query %d k=%d: refined row %d (rank %d) has estimate %v, not below the cut %v (radius %v)",
								name, d, qi, k, c.Index, r, cand[r].Dist, cut, s.radius)
						}
					}
					s.putPlan(p)
					want := naiveSearchRange(s, q, 0, n, k, n, nil)
					for _, workers := range []int{1, 2} {
						got, _ := s.SearchLive(q, 0, n, k, n, workers, nil)
						if len(got) != len(want) {
							t.Fatalf("%s d=%d query %d k=%d w=%d: %d neighbors, want %d", name, d, qi, k, workers, len(got), len(want))
						}
						for r := range got {
							if got[r].Index != want[r].Index || math.Float64bits(got[r].Dist) != math.Float64bits(want[r].Dist) {
								t.Fatalf("%s d=%d query %d k=%d w=%d rank %d: %+v, want %+v", name, d, qi, k, workers, r, got[r], want[r])
							}
						}
					}
				}
			}
		}
	}
}

// TestRefineCountBounds holds the sweep's and the refine step's work to
// their bounds over the scan property test's grid: SearchLive's second
// result, the candidates phase 1 kept, is at most min(budget, live), and
// the rows refined (the Rescored counter) number at least min(k, live) and
// at most that count. Where the budget admits every live row, the cut must
// do its job: the candidates kept stay under a fifth of the live rows over
// the grid, and the rows refined under that.
func TestRefineCountBounds(t *testing.T) {
	n, k := 3000, 10
	var everyFifth []int
	for i := 2; i < n; i += 5 {
		everyFifth = append(everyFifth, i)
	}
	var fullLive, fullCand int
	for _, d := range prefixTestDims {
		data, queries := testData(t, n, 6, d, 41)
		for name, cfg := range storeVariants(data) {
			s := buildStore(t, data, cfg)
			for qi := 0; qi < queries.Rows(); qi++ {
				dead := everyFifth[:qi%2*len(everyFifth)]
				live := n - len(dead)
				for _, budget := range []int{k, 2 * k, n} {
					for _, workers := range []int{1, 2} {
						before := s.Stats().Rescored
						_, cand := s.SearchLive(queries.RawRow(qi), 0, n, k, budget, workers, dead)
						refined := int(s.Stats().Rescored - before)
						if refined < min(k, live) || refined > cand || cand > min(budget, live) {
							t.Fatalf("%s d=%d q=%d budget=%d w=%d: %d candidates and %d refined, want %d ≤ refined ≤ candidates ≤ %d",
								name, d, qi, budget, workers, cand, refined, min(k, live), min(budget, live))
						}
						if budget == n {
							fullLive += live
							fullCand += cand
						}
					}
				}
			}
		}
	}
	if 5*fullCand >= fullLive {
		t.Errorf("full-budget searches kept %d candidates of %d live rows: the cut did not engage", fullCand, fullLive)
	}
}

// TestRefineWithoutRadius zeroes the error radius of a written store, as a
// file from before the radius has it, and reopens it: the answers must not
// move, distance bits included, and without the bound every candidate is
// refined.
func TestRefineWithoutRadius(t *testing.T) {
	n, k := 3000, 10
	data, queries := testData(t, n, 6, 64, 73)
	acc := NewScaleAccumulator(64)
	for i := 0; i < n; i++ {
		acc.Add(data.RawRow(i))
	}
	with := buildStore(t, data, BuildConfig{Perm: acc.VarianceOrder()})
	without := reopenWithoutRadius(t, with)
	if with.radius <= 0 || without.radius != 0 {
		t.Fatalf("radius %v written, %v after zeroing", with.radius, without.radius)
	}
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.RawRow(qi)
		for _, budget := range []int{k, 4 * k, 32 * k, n} {
			want, _ := with.SearchLive(q, 0, n, k, budget, 1, nil)
			before := without.Stats().Rescored
			got, cand := without.SearchLive(q, 0, n, k, budget, 1, nil)
			if refined := int(without.Stats().Rescored - before); refined != budget || cand != budget {
				t.Fatalf("q=%d budget=%d: %d candidates, %d refined without a radius, want %d", qi, budget, cand, refined, budget)
			}
			if len(got) != len(want) {
				t.Fatalf("q=%d budget=%d: %d neighbors without a radius, %d with", qi, budget, len(got), len(want))
			}
			for r := range got {
				if got[r].Index != want[r].Index || math.Float64bits(got[r].Dist) != math.Float64bits(want[r].Dist) {
					t.Fatalf("q=%d budget=%d rank %d: %+v without a radius, %+v with", qi, budget, r, got[r], want[r])
				}
			}
		}
	}
}

// reopenWithoutRadius writes s's file with the error radius slot zeroed, as
// in a file written before the radius existed, and opens it.
func reopenWithoutRadius(tb testing.TB, s *Store) *Store {
	tb.Helper()
	raw := readStore(tb, s)
	clear(raw[radiusOff : radiusOff+8])
	path := filepath.Join(tb.TempDir(), "no-radius.qvs")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	without, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { without.Close() })
	return without
}
