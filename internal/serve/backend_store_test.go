package serve

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
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

// TestStoreApproxUntilFirstCompaction: the store's rescore budget is the
// engine's one approximate mechanism and the first compaction folds the store
// into a dense snapshot, so ModeApprox is served approximately before it and
// exactly — bit-identical to ModeExact, and saying so — after it.
func TestStoreApproxUntilFirstCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, d, k = 300, 13, 5
	data := randMatrix(rng, n, d)
	q := randMatrix(rng, 1, d).RawRow(0)
	e := newStoreTestEngine(t, openTestStore(t, data, store.BuildConfig{}), 2, 40)
	ctx := context.Background()

	res, err := e.SearchMode(ctx, q, k, ModeApprox)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approx || res.Candidates <= 0 || res.Epoch != 1 {
		t.Fatalf("before compaction: approx=%v candidates=%d epoch=%d, want an approximate answer of epoch 1",
			res.Approx, res.Candidates, res.Epoch)
	}

	if _, err := e.Insert(ctx, randMatrix(rng, 1, d).RawRow(0)); err != nil {
		t.Fatal(err)
	}
	if epoch, err := e.Compact(ctx); err != nil || epoch != 2 {
		t.Fatalf("Compact = %d, %v, want epoch 2", epoch, err)
	}
	res, err = e.SearchMode(ctx, q, k, ModeApprox)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.SearchMode(ctx, q, k, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx || res.Candidates != 0 || res.Epoch != 2 {
		t.Fatalf("after compaction: approx=%v candidates=%d epoch=%d, want an exact answer of epoch 2",
			res.Approx, res.Candidates, res.Epoch)
	}
	if !slices.Equal(res.Neighbors, exact.Neighbors) {
		t.Fatalf("after compaction ModeApprox answers %+v, ModeExact %+v", res.Neighbors, exact.Neighbors)
	}
	if st := e.Stats(); st.Approx != 1 || st.Exact != 2 {
		t.Fatalf("stats approx=%d exact=%d, want 1/2", st.Approx, st.Exact)
	}
}

// TestNewFromStoreRejectsNil pins the constructor's error path.
func TestNewFromStoreRejectsNil(t *testing.T) {
	if _, err := NewFromStore(nil, Config{}); err == nil {
		t.Fatal("nil store accepted")
	}
}
