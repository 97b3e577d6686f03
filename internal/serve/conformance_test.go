package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/store"
)

// The axes of the exact-conformance table, indexed by the ax* constants.
// Every pair of values of two axes meets in some case (conformanceCases); the
// full product is not run. The T=* schedules are the tombstone counts of
// TestTombstoneScanMatchesRebuild.
var (
	confBackends  = []string{"dense", "store", "store-reversed"}
	confShards    = []int{1, 2, 3, 7, 16}
	confWorkers   = []int{1, 2}
	confSchedules = []string{"none", "T=0", "T=1", "T=200", "T=shard", "T=all-but-3", "mix", "mix-compact-end", "mix-compact-40"}
	confKs        = []string{"1", "8", "Len", "Len+1", "1<<20", "MaxInt"}
	confData      = []string{"gaussian", "offset", "lattice"}
)

const (
	axBackend = iota
	axShards
	axWorkers
	axSchedule
	axK
	axData
	numAxes
)

// confTests are the tests that run the table, each the cases of one
// contract (confCase.test); together they run every case once.
var confTests = []string{
	"TestExactMatchesSearchSetBatch", "TestStoreExactMatchesSearchSetBatch", "TestStoreScanWorkersBitIdentical",
	"TestKLargerThanData", "TestOversizedK", "TestMutationMatchesRebuild", "TestStoreMutationMatchesRebuild",
	"TestTombstoneScanMatchesRebuild",
}

// confCase is one cell of the table: a value index per axis.
type confCase [numAxes]int

func (c confCase) String() string {
	if c.tombstoneGrid() {
		return fmt.Sprintf("%s/shards=%d/%s", confBackends[c[axBackend]], confShards[c[axShards]], confSchedules[c[axSchedule]])
	}
	return fmt.Sprintf("%s/shards=%d/workers=%d/%s/k=%s/%s", confBackends[c[axBackend]], confShards[c[axShards]],
		confWorkers[c[axWorkers]], confSchedules[c[axSchedule]], confKs[c[axK]], confData[c[axData]])
}

// tombstoneGrid reports whether c is one of the 30 cases of the full
// dense, store × shards {1, 3, 7} × T=* grid, at one ScanWorker, k = 8 and
// Gaussian data.
func (c confCase) tombstoneGrid() bool {
	return c[axBackend] <= 1 && slices.Contains([]int{1, 3, 7}, confShards[c[axShards]]) && c[axWorkers] == 0 &&
		strings.HasPrefix(confSchedules[c[axSchedule]], "T=") && confKs[c[axK]] == "8" && c[axData] == 0
}

// inGrid reports whether c is in one of the full grids the table runs
// besides its pairwise cover — the grid each test of one contract ran before
// the table — at one ScanWorker, k = 8 and Gaussian data.
func (c confCase) inGrid() bool {
	if c[axWorkers] != 0 || confKs[c[axK]] != "8" || c[axData] != 0 {
		return c.tombstoneGrid()
	}
	backend, shards, sched := confBackends[c[axBackend]], confShards[c[axShards]], confSchedules[c[axSchedule]]
	switch {
	case backend == "dense" && sched == "none":
		return true
	case sched == "none", backend == "dense" && (sched == "mix" || sched == "mix-compact-40"):
		return shards != 2 && shards != 16
	case backend == "store" && (sched == "mix" || sched == "mix-compact-end"):
		return shards == 1 || shards == 3
	}
	return c.tombstoneGrid()
}

// test names the one test of confTests that runs c.
func (c confCase) test() string {
	isStore, sched, k := c[axBackend] > 0, confSchedules[c[axSchedule]], c[axK]
	switch {
	case c.tombstoneGrid():
		return "TestTombstoneScanMatchesRebuild"
	case isStore && confWorkers[c[axWorkers]] > 1:
		return "TestStoreScanWorkersBitIdentical"
	case k > 2 && sched == "none":
		return "TestKLargerThanData"
	case k > 2:
		return "TestOversizedK"
	case strings.HasPrefix(sched, "mix") && isStore:
		return "TestStoreMutationMatchesRebuild"
	case strings.HasPrefix(sched, "mix"):
		return "TestMutationMatchesRebuild"
	case isStore:
		return "TestStoreExactMatchesSearchSetBatch"
	}
	return "TestExactMatchesSearchSetBatch"
}

// conformanceCases returns a pairwise cover of the axes: first the offset
// data set at k = 8 on one dense shard — the cell where the norm-cache
// identity keeps no digit of any distance, so a scan without the gap test
// answers wrongly — and the grids (inGrid), then, until every pair of axis
// values has met, the case of the full product that meets the most pairs not
// met yet (the first in product order on a tie), so the table is the same on
// every run.
func conformanceCases() []confCase {
	sizes := confCase{len(confBackends), len(confShards), len(confWorkers), len(confSchedules), len(confKs), len(confData)}
	var first [numAxes][numAxes]int // first[a][b]: where axes a < b start in met
	npairs, product := 0, 1
	for a := range sizes {
		product *= sizes[a]
		for b := a + 1; b < numAxes; b++ {
			first[a][b] = npairs
			npairs += sizes[a] * sizes[b]
		}
	}
	met := make([]bool, npairs)
	// meet counts the pairs of c not met yet, marking them met if take.
	meet := func(c confCase, take bool) int {
		n := 0
		for a := range sizes {
			for b := a + 1; b < numAxes; b++ {
				if p := first[a][b] + c[a]*sizes[b] + c[b]; !met[p] {
					n++
					met[p] = take
				}
			}
		}
		return n
	}
	// at returns the x-th case of the full product.
	at := func(x int) (c confCase) {
		for a, r := numAxes-1, x; a >= 0; a-- {
			c[a], r = r%sizes[a], r/sizes[a]
		}
		return c
	}
	cases := []confCase{{axK: 1, axData: 1}}
	for x := 0; x < product; x++ {
		if c := at(x); c.inGrid() {
			cases = append(cases, c)
		}
	}
	left := npairs
	for _, c := range cases {
		left -= meet(c, true)
	}
	for left > 0 {
		var best confCase
		bestN := 0
		for x := 0; x < product; x++ {
			if n := meet(at(x), false); n > bestN {
				best, bestN = at(x), n
			}
		}
		left -= meet(best, true)
		cases = append(cases, best)
	}
	return cases
}

// confDraw returns a generator of the rows of one data set, and their width:
// Gaussian; every coordinate N(10⁴, 10⁻⁶), where ‖x‖² ≈ 10⁸·d swamps every
// squared distance (≈ 10⁻¹²·d) and the norm-cache identity keeps none of its
// digits; and the integer lattice {0,…,3}³, where rows repeat and rank k is
// an exact tie.
func confDraw(data string, rng *rand.Rand) (draw func() []float64, d int) {
	d = map[string]int{"gaussian": 11, "offset": 16, "lattice": 3}[data]
	return func() []float64 {
		v := make([]float64, d)
		for j := range v {
			switch data {
			case "offset":
				v[j] = 1e4 + 1e-6*rng.NormFloat64()
			case "lattice":
				v[j] = float64(rng.Intn(4))
			default:
				v[j] = rng.NormFloat64()
			}
		}
		return v
	}, d
}

// The exact contract, one table (conformanceCases) run by eight tests: for
// every backend, shard count, ScanWorkers value, mutation schedule, k and
// data set, ModeExact is bit-identical to knn.SearchSetBatch over the live
// rows (VerifyMutated), and ModeApprox returns no dead ID, does not depend on
// ScanWorkers, and answers an oversized k as k = Len, as ModeExact does.
//
// A store-backed case with two ScanWorkers holds 2,048 rows per shard, so
// each shard's scan really splits (store's minSegmentRows clamps shorter
// ranges to one segment). The T=* schedules delete T rows — each query's
// true neighbours first, nearest first, round-robin over the queries; every
// row of the last shard (whose scan then finds nothing); or all but 3 (so k
// exceeds the live rows) — then insert five rows and delete one of them, so
// the delta scan skips a dead row next to the snapshot's. The mix-*
// schedules are 100 inserts and deletes, compacted never, after the last, or
// every 40 (leaving 20 pending); a compaction moves a store-backed engine
// onto a dense snapshot.

// TestExactMatchesSearchSetBatch runs the dense cases with k ≤ Len and no
// mix-* schedule, the offset data set at one shard among them.
func TestExactMatchesSearchSetBatch(t *testing.T) { runConformanceTable(t) }

// TestStoreExactMatchesSearchSetBatch runs the store-backed cases (natural
// and reversed perm) at one ScanWorker with k ≤ Len and no mix-* schedule.
func TestStoreExactMatchesSearchSetBatch(t *testing.T) { runConformanceTable(t) }

// TestStoreScanWorkersBitIdentical runs the store-backed cases with two
// ScanWorkers, each checked against a ScanWorkers = 1 twin.
func TestStoreScanWorkersBitIdentical(t *testing.T) { runConformanceTable(t) }

// TestKLargerThanData runs the cases with k ∈ {Len+1, 1<<20, MaxInt} and no
// mutation.
func TestKLargerThanData(t *testing.T) { runConformanceTable(t) }

// TestOversizedK runs the cases with k ∈ {Len+1, 1<<20, MaxInt} and
// mutations pending or compacted.
func TestOversizedK(t *testing.T) { runConformanceTable(t) }

// TestMutationMatchesRebuild runs the dense cases of the mix-* schedules.
func TestMutationMatchesRebuild(t *testing.T) { runConformanceTable(t) }

// TestStoreMutationMatchesRebuild runs the store-backed cases of the mix-*
// schedules.
func TestStoreMutationMatchesRebuild(t *testing.T) { runConformanceTable(t) }

// TestTombstoneScanMatchesRebuild runs the full dense, store × shards
// {1, 3, 7} × T ∈ {0, 1, 200, shard, all-but-3} grid.
func TestTombstoneScanMatchesRebuild(t *testing.T) { runConformanceTable(t) }

// runConformanceTable runs the cases of the table whose test is t's.
func runConformanceTable(t *testing.T) {
	ran := 0
	for _, c := range conformanceCases() {
		if c.test() == t.Name() {
			ran++
			t.Run(c.String(), func(t *testing.T) { runConformance(t, c) })
		}
	}
	if ran == 0 {
		t.Fatalf("no case of the conformance table belongs to %s", t.Name())
	}
}

// TestExactConformance holds the table to its shape: every pair of axis
// values meets in some case, and each case belongs to one of confTests.
func TestExactConformance(t *testing.T) {
	sizes := confCase{len(confBackends), len(confShards), len(confWorkers), len(confSchedules), len(confKs), len(confData)}
	met := map[[4]int]bool{}
	for _, c := range conformanceCases() {
		if !slices.Contains(confTests, c.test()) {
			t.Errorf("case %v belongs to %s, which is not in confTests", c, c.test())
		}
		for a := range c {
			for b := a + 1; b < numAxes; b++ {
				met[[4]int{a, c[a], b, c[b]}] = true
			}
		}
	}
	for a := range sizes {
		for b := a + 1; b < numAxes; b++ {
			for va := 0; va < sizes[a]; va++ {
				for vb := 0; vb < sizes[b]; vb++ {
					if !met[[4]int{a, va, b, vb}] {
						t.Errorf("axis %d value %d never meets axis %d value %d", a, va, b, vb)
					}
				}
			}
		}
	}
}

func runConformance(t *testing.T, c confCase) {
	ctx := context.Background()
	backend, shards, schedule := confBackends[c[axBackend]], confShards[c[axShards]], confSchedules[c[axSchedule]]
	draw, d := confDraw(confData[c[axData]], rand.New(rand.NewSource(int64(1+c[axData]))))
	n, nq := 300, 8
	if backend != "dense" && confWorkers[c[axWorkers]] > 1 {
		n, nq = 2048*shards+37, 3 // fewer queries: at k ≥ Len each answer is every row
	}
	data, queries := linalg.NewDense(n, d), linalg.NewDense(nq, d)
	for i := 0; i < n; i++ {
		copy(data.RawRow(i), draw())
	}
	for i := 0; i < nq; i++ {
		copy(queries.RawRow(i), draw())
	}
	var st *store.Store
	switch backend {
	case "store":
		st = openTestStore(t, data, store.BuildConfig{})
	case "store-reversed":
		perm := make([]int, d)
		for j := range perm {
			perm[j] = d - 1 - j
		}
		st = openTestStore(t, data, store.BuildConfig{Perm: perm})
	}
	var nearest []int // the T=* deletion order
	if strings.HasPrefix(schedule, "T=") {
		seen := make([]bool, n)
		truth := knn.SearchSetBatch(data, queries, n, knn.Euclidean{}, false)
		for rank := 0; rank < n; rank++ {
			for q := range truth {
				if id := truth[q][rank].Index; !seen[id] {
					seen[id] = true
					nearest = append(nearest, id)
				}
			}
		}
	}

	// build returns an engine with the given ScanWorkers after the case's
	// mutation schedule, and the model of its live rows.
	build := func(workers int) (*Engine, *mutModel) {
		cfg := Config{Shards: shards, QueueDepth: 4096, CompactAt: -1, ScanWorkers: workers}
		var e *Engine
		var err error
		base := data
		if st != nil {
			base = st.ExactMatrix()
			e, err = NewFromStore(st, cfg)
		} else {
			e, err = New(data, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		m := newMutModel(base)
		ids := make([]int, n) // the live IDs, ascending, for the mix-* deletes
		for i := range ids {
			ids[i] = i
		}
		insert := func(vec []float64) {
			id, err := e.Insert(ctx, vec)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			m.rows[id] = vec
			ids = append(ids, id)
		}
		remove := func(id int) {
			if err := e.Delete(ctx, id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			delete(m.rows, id)
			if j, ok := slices.BinarySearch(ids, id); ok {
				ids = slices.Delete(ids, j, j+1)
			}
		}
		rng := rand.New(rand.NewSource(101))
		opDraw, _ := confDraw(confData[c[axData]], rng)
		switch schedule {
		case "none":
		case "T=0", "T=1", "T=200", "T=shard", "T=all-but-3":
			var dead []int
			switch schedule {
			case "T=1":
				dead = nearest[:1]
			case "T=200":
				dead = nearest[:200]
			case "T=all-but-3":
				dead = nearest[:n-3]
			case "T=shard":
				r := shardRanges(n, shards)[shards-1]
				dead = ids[r[0]:r[1]:r[1]]
			}
			for _, id := range slices.Clone(dead) {
				remove(id)
			}
			for i := 0; i < 5; i++ {
				insert(opDraw())
			}
			remove(n + 2)
		default:
			for op := 1; op <= 100; op++ {
				if rng.Float64() < 0.6 || len(ids) == 0 {
					insert(opDraw())
				} else {
					remove(ids[rng.Intn(len(ids))])
				}
				if schedule == "mix-compact-40" && op%40 == 0 || schedule == "mix-compact-end" && op == 100 {
					if _, err := e.Compact(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return e, m
	}

	e, m := build(confWorkers[c[axWorkers]])
	live := e.Len()
	k := map[string]int{"1": 1, "8": 8, "Len": live, "Len+1": live + 1, "1<<20": 1 << 20, "MaxInt": math.MaxInt}[confKs[c[axK]]]
	if err := VerifyMutated(ctx, e, m.liveSet(d), queries, k, 0); err != nil {
		t.Fatal(err)
	}
	approx := searchAll(t, e, queries, k, ModeApprox)
	for q, res := range approx {
		for _, nb := range res {
			if _, ok := m.rows[nb.Index]; !ok {
				t.Fatalf("query %d: ModeApprox answered dead id %d", q, nb.Index)
			}
		}
	}
	if k > live {
		for _, mode := range []Mode{ModeExact, ModeApprox} {
			if !reflect.DeepEqual(searchAll(t, e, queries, k, mode), searchAll(t, e, queries, live, mode)) {
				t.Fatalf("%v: the k=%d answers differ from the k=Len=%d ones", mode, k, live)
			}
		}
	}
	if confWorkers[c[axWorkers]] != 1 {
		twin, _ := build(1)
		if !reflect.DeepEqual(approx, searchAll(t, twin, queries, k, ModeApprox)) {
			t.Fatal("ModeApprox answers differ from the ScanWorkers=1 engine's")
		}
	}
}
