package serve

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/knn"
	"repro/internal/store"
)

// TestDeltaScanAllocs pins the mutation read path's //drlint:hotpath
// contract at runtime: scanning a captured delta view against a warm
// collector allocates once per Results call the scan makes — the admission
// slice, which the caller keeps when the gap test vouches for it, plus the
// scalar re-rank's when it refuses. The admission loop, tombstone cursor
// and rescore pass are allocation-free. The second input is all-identical
// rows, so knn.NormCacheSeparated refuses and the re-rank branch runs.
func TestDeltaScanAllocs(t *testing.T) {
	const n, d, k = 64, 8, 4
	rows := func(at func(i, j int) float64) flatRows {
		v := flatRows{
			rows:  make([]float64, n*d),
			ids:   make([]int, n),
			norms: make([]float64, n),
			d:     d,
		}
		for i := 0; i < n; i++ {
			v.ids[i] = i * 2
			var nrm float64
			for j := 0; j < d; j++ {
				x := at(i, j)
				v.rows[i*d+j] = x
				nrm += x * x
			}
			v.norms[i] = nrm
		}
		return v
	}
	query := make([]float64, d)
	for j := range query {
		query[j] = float64(j) / 3
	}
	dead := []int{6, 20, 42}
	for _, c := range []struct {
		name   string
		v      flatRows
		allocs float64
	}{
		{"separated", rows(func(i, j int) float64 { return float64((i*7919+j*31)%256) / 17 }), 1},
		{"identical rows", rows(func(_, j int) float64 { return float64(j) }), 2},
	} {
		col := knn.NewCollector(k)
		avg := testing.AllocsPerRun(500, func() {
			_ = c.v.scan(query, k, dead, col)
		})
		if avg != c.allocs {
			t.Errorf("%s: flatRows.scan does %.2f allocs/op, want exactly %v (one per Results slice)", c.name, avg, c.allocs)
		}
	}
}

// TestTombstoneReadAllocs pins the read path end to end, across the caller,
// Engine.handle and Engine.shardWorker (AllocsPerRun counts every
// goroutine): an exact read allocates five times — the request, its reply
// channel and the result slices — and one with 500 tombstones pending no
// more than one with none: nothing on the request path copies, sorts or
// grows with the dead lists.
func TestTombstoneReadAllocs(t *testing.T) {
	read := func(dead int) float64 {
		e, queries := tombstoneBenchEngine(t, dead)
		timeReads(t, e, queries, 8) // size the pooled collector first
		return testing.AllocsPerRun(100, func() { timeReads(t, e, queries, 1) })
	}
	clean, mutated := read(0), read(500)
	if clean > 5 {
		t.Errorf("exact read allocates %.1f times, want at most 5", clean)
	}
	if mutated > clean {
		t.Errorf("exact read allocates %.1f times with 500 tombstones, %.1f with none", mutated, clean)
	}
}

// TestMutatedReadAllocs drives the read path's remaining branches at a
// pinned allocation count: two shards with delta rows and tombstones on
// both, a compacted dense engine (snapshot positions lift to stable IDs)
// and an uncompacted store-backed one read exactly and approximately (the
// shard's candidate count). Each read allocates seven times: the request,
// its reply channel, the merged slice, and one result slice per snapshot
// and per delta scan of each shard.
func TestMutatedReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	data := randMatrix(rng, 2000, 16)
	queries := randMatrix(rng, 16, 16)
	ctx := context.Background()
	mutate := func(e *Engine, compact bool) {
		for i := 0; i < 40; i++ {
			if err := e.Delete(ctx, i*50); err != nil {
				t.Fatal(err)
			}
		}
		if compact {
			if _, err := e.Compact(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			id, err := e.Insert(ctx, queries.RawRow(i))
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := e.Delete(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Delete(ctx, 1+i*97); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := Config{Shards: 2, Workers: 1, ShardWorkers: 1, QueueDepth: 64, CompactAt: -1}
	dense, err := New(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	mutate(dense, true)
	st, err := NewFromStore(openTestStore(t, data, store.BuildConfig{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mutate(st, false)
	for _, c := range []struct {
		name string
		e    *Engine
		mode Mode
	}{{"dense exact", dense, ModeExact}, {"store exact", st, ModeExact}, {"store approx", st, ModeApprox}} {
		read := func() {
			if _, err := c.e.SearchMode(ctx, queries.RawRow(3), 10, c.mode); err != nil {
				t.Fatal(err)
			}
		}
		read() // size the pooled collectors first
		if avg := testing.AllocsPerRun(100, read); avg != 7 {
			t.Errorf("%s: a read on a mutated two-shard engine allocates %.2f times, want exactly 7", c.name, avg)
		}
	}
}
