package serve

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/store"
)

// openTestStore writes data into a quantized store file and opens it.
func openTestStore(t *testing.T, data *linalg.Dense, cfg store.BuildConfig) *store.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.qvs")
	if err := store.Write(path, data, cfg); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func newStoreTestEngine(t *testing.T, st *store.Store, shards, rescore int) *Engine {
	t.Helper()
	e, err := NewFromStore(st, Config{
		Shards:     shards,
		QueueDepth: 4096,
		Rescore:    rescore,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestStoreExactMatchesSearchSetBatch extends the engine's core contract to
// the quantized backend: ModeExact over a store-backed snapshot (full
// rescore) must be bit-identical to the single-threaded batch engine over
// the original float64 data, for every shard count.
func TestStoreExactMatchesSearchSetBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, d, nq, k = 500, 23, 40, 10
	data := randMatrix(rng, n, d)
	queries := randMatrix(rng, nq, d)
	want := knn.SearchSetBatch(data, queries, k, knn.Euclidean{}, false)

	reversed := make([]int, d)
	for j := range reversed {
		reversed[j] = d - 1 - j
	}
	for name, cfg := range map[string]store.BuildConfig{
		"int8":      {Precision: store.Int8},
		"int8-perm": {Perm: reversed},
	} {
		st := openTestStore(t, data, cfg)
		for _, shards := range []int{1, 3, 7} {
			e := newStoreTestEngine(t, st, shards, 0)
			got := searchAll(t, e, queries, k, ModeExact)
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s shards=%d query %d: %d neighbors, want %d",
						name, shards, i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					g, w := got[i][j], want[i][j]
					if g.Index != w.Index || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
						t.Fatalf("%s shards=%d query %d neighbor %d: got %+v want %+v",
							name, shards, i, j, g, w)
					}
				}
			}
		}
	}
}

// TestStoreApproxRecallAndCandidates checks that the budgeted approximate
// path returns high-recall results, reports its rescore work, and that the
// reported distances are exact (phase 2 always rescores what it returns).
func TestStoreApproxRecallAndCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n, d, nq, k = 800, 23, 40, 10
	data := randMatrix(rng, n, d)
	queries := randMatrix(rng, nq, d)
	want := knn.SearchSetBatch(data, queries, k, knn.Euclidean{}, false)

	st := openTestStore(t, data, store.BuildConfig{Precision: store.Int8})
	e := newStoreTestEngine(t, st, 3, 200)

	got := make([][]knn.Neighbor, nq)
	for i := 0; i < nq; i++ {
		res, err := e.SearchMode(context.Background(), queries.RawRow(i), k, ModeApprox)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Approx {
			t.Fatal("ModeApprox result not marked Approx")
		}
		if res.Candidates <= 0 || res.Candidates > 3*200 {
			t.Fatalf("query %d: %d candidates, want in (0, 600]", i, res.Candidates)
		}
		for _, nb := range res.Neighbors {
			exact := knn.Euclidean{}.Distance(data.RawRow(nb.Index), queries.RawRow(i))
			if math.Float64bits(nb.Dist) != math.Float64bits(exact) {
				t.Fatalf("query %d: neighbor %d reported dist %v, exact %v", i, nb.Index, nb.Dist, exact)
			}
		}
		got[i] = res.Neighbors
	}
	if r := index.MeanRecall(got, want); r < 0.95 {
		t.Fatalf("approx recall %.3f < 0.95", r)
	}
}

// TestStoreScanWorkersBitIdentical pins the intra-query parallelism knob:
// engines differing only in ScanWorkers must serve bit-identical results on
// both the exact and the budgeted approximate path — segment splitting and
// merge order are invisible to callers.
func TestStoreScanWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, d, nq, k = 3000, 23, 25, 10
	data := randMatrix(rng, n, d)
	queries := randMatrix(rng, nq, d)
	st := openTestStore(t, data, store.BuildConfig{Precision: store.Int8})

	run := func(scanWorkers int) [][]knn.Neighbor {
		e, err := NewFromStore(st, Config{
			Shards:      2,
			QueueDepth:  4096,
			Rescore:     150,
			ScanWorkers: scanWorkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		out := searchAll(t, e, queries, k, ModeExact)
		for i := 0; i < nq; i++ {
			res, err := e.SearchMode(context.Background(), queries.RawRow(i), k, ModeApprox)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Neighbors)
		}
		return out
	}

	want := run(1)
	for _, workers := range []int{0, 2, 3} {
		got := run(workers)
		for i := range want {
			for j := range want[i] {
				g, w := got[i][j], want[i][j]
				if g.Index != w.Index || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
					t.Fatalf("ScanWorkers=%d result %d neighbor %d: got %+v want %+v",
						workers, i, j, g, w)
				}
			}
		}
	}
}

// TestSwapBetweenDenseAndStore moves one engine across backends and checks
// each generation serves from the right one.
func TestSwapBetweenDenseAndStore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, d, k = 300, 13, 5
	dense := randMatrix(rng, n, d)
	other := randMatrix(rng, n, d)
	q := dense.RawRow(0)

	e := newTestEngine(t, dense, 2)
	st := openTestStore(t, other, store.BuildConfig{})
	epoch, err := e.SwapStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch %d after SwapStore, want 2", epoch)
	}
	res, err := e.SearchMode(context.Background(), q, k, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	want := knn.SearchSetBatch(other, linalg.NewDenseData(1, d, append([]float64(nil), q...)), k, knn.Euclidean{}, false)[0]
	for j := range want {
		if res.Neighbors[j] != want[j] {
			t.Fatalf("store generation neighbor %d: got %+v want %+v", j, res.Neighbors[j], want[j])
		}
	}

	// And back to dense.
	if _, err := e.Swap(dense); err != nil {
		t.Fatal(err)
	}
	res, err = e.SearchMode(context.Background(), q, k, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Neighbors[0].Index != 0 || res.Neighbors[0].Dist != 0 {
		t.Fatalf("dense generation: query is row 0, got nearest %+v", res.Neighbors[0])
	}
	if res.Epoch != 3 {
		t.Fatalf("epoch %d after Swap back, want 3", res.Epoch)
	}
}

// TestNewFromStoreRejectsNil pins the constructor's error paths.
func TestNewFromStoreRejectsNil(t *testing.T) {
	if _, err := NewFromStore(nil, Config{}); err == nil {
		t.Fatal("nil store accepted")
	}
	e := newTestEngine(t, randMatrix(rand.New(rand.NewSource(1)), 10, 3), 2)
	if _, err := e.SwapStore(nil); err == nil {
		t.Fatal("nil store accepted by SwapStore")
	}
}
