package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/serve"
)

// Share of a mutate_mix client's ops that are inserts and deletes; the rest
// are exact reads. Equal shares keep the row count stationary.
const (
	insertShare = 0.05
	deleteShare = 0.05
)

// mutateMix runs dense_exact's data and engine with writes beside the reads:
// delta scan and tombstone filter on the read path, snapshot swaps from the
// background compactor. A read-path gain paid for by writes, compaction or
// tail latency shows here and nowhere else.
type mutateMix struct {
	denseExact
	compactMS float64
}

// repeats is false: a read scans a delta that grows from empty to CompactAt
// rows and is folded away again, so the same query costs 0.42 ms just after a
// compaction and 0.80 ms just before the next.
func (w *mutateMix) repeats() bool { return false }

// mutClient is one closed-loop caller of the mix. It owns a disjoint slice
// of the base rows (client w owns rows w, w+C, …) plus every row it inserted,
// and only deletes what it owns, so its bookkeeping needs no coordination
// and every violation it counts is exact.
type mutClient struct {
	readClient
	base     *linalg.Dense
	alive    []int             // owned live IDs: deletion candidates
	inserted map[int][]float64 // acknowledged inserts still alive
	deleted  map[int]struct{}  // acknowledged deletes: must never be read again
	checkID  int               // pending read-your-writes target, −1 when none
	checkVec []float64
}

func (w *mutateMix) clients(t0 time.Time) []client {
	cs := make([]client, procs)
	for i := range cs {
		c := &mutClient{
			readClient: readClient{
				l: newOpLog(), e: w.e, queries: w.queries, mode: serve.ModeExact, t0: t0,
				rng: rand.New(rand.NewSource(clientSeed(w.cfg.seed, i))),
			},
			base:     w.data,
			inserted: make(map[int][]float64),
			deleted:  make(map[int]struct{}),
			checkID:  -1,
		}
		for id := i; id < w.data.Rows(); id += procs {
			c.alive = append(c.alive, id)
		}
		cs[i] = c
	}
	return cs
}

func (c *mutClient) step(ctx context.Context) {
	opStart := c.now()
	switch r := c.rng.Float64(); {
	case r < deleteShare && len(c.alive) > 0:
		j := c.rng.Intn(len(c.alive))
		id := c.alive[j]
		t0 := c.now()
		err := c.e.Delete(ctx, id)
		t1 := c.now()
		if err == nil {
			c.alive[j] = c.alive[len(c.alive)-1]
			c.alive = c.alive[:len(c.alive)-1]
			c.deleted[id] = struct{}{}
			delete(c.inserted, id)
			if id == c.checkID {
				// Deleted by its own writer before the check ran:
				// absence is now the right answer.
				c.checkID, c.checkVec = -1, nil
			}
		}
		c.l.done(sample{kind: opDelete, lat: t1 - t0}, err != nil)
		if c.l.spans != nil {
			traceServeOp(c.l, "serve.Delete", opStart, t0, t1, c.now(), 0, 0)
		}
	case r < deleteShare+insertShare:
		vec := make([]float64, c.base.Cols())
		copy(vec, c.base.RawRow(c.rng.Intn(c.base.Rows())))
		for j := range vec {
			vec[j] += c.rng.NormFloat64() * 0.01
		}
		t0 := c.now()
		id, err := c.e.Insert(ctx, vec)
		t1 := c.now()
		if err == nil {
			c.alive = append(c.alive, id)
			c.inserted[id] = vec
			c.checkID, c.checkVec = id, vec
		}
		c.l.done(sample{kind: opInsert, lat: t1 - t0}, err != nil)
		if c.l.spans != nil {
			traceServeOp(c.l, "serve.Insert", opStart, t0, t1, c.now(), 0, 0)
		}
	default:
		c.read(ctx, opStart)
	}
}

// read issues one exact k-NN read and checks it inline: no neighbor may be
// an ID whose deletion this client has had acknowledged, and the read after
// an acknowledged insert queries the inserted vector itself and must find
// its ID (distance zero is unbeatable under the canonical order, so absence
// means the acknowledged write was not visible).
func (c *mutClient) read(ctx context.Context, opStart int64) {
	q := c.queries.RawRow(c.rng.Intn(c.queries.Rows()))
	mustFind := -1
	if c.checkID >= 0 {
		q, mustFind = c.checkVec, c.checkID
		c.checkID, c.checkVec = -1, nil
	}
	t0 := c.now()
	res, err := c.e.SearchMode(ctx, q, neighbors, serve.ModeExact)
	t1 := c.now()
	bad := err != nil || len(res.Neighbors) != neighbors
	found := mustFind < 0
	for _, nb := range res.Neighbors {
		if _, dead := c.deleted[nb.Index]; dead {
			bad = true
		}
		if nb.Index == mustFind {
			found = true
		}
	}
	c.l.done(sample{kind: opPrimary, lat: t1 - t0, a: int64(res.Wait), b: int64(res.Total)}, bad || !found)
	if c.l.spans != nil {
		traceServeOp(c.l, "serve.SearchMode", opStart, t0, t1, c.now(), res.Wait, res.Total)
	}
}

// liveSet merges the clients' private bookkeeping into the ground truth the
// harness tracked itself: surviving stable IDs in ascending order and their
// vectors, row-aligned — what a from-scratch rebuild would serve.
func liveSet(base *linalg.Dense, cs []client) (ids []int, rows *linalg.Dense) {
	dead := make(map[int]struct{})
	inserted := make(map[int][]float64)
	for _, c := range cs {
		mc := c.(*mutClient)
		for id := range mc.deleted {
			dead[id] = struct{}{}
		}
		for id, vec := range mc.inserted {
			inserted[id] = vec
		}
	}
	for id := 0; id < base.Rows(); id++ {
		if _, gone := dead[id]; !gone {
			ids = append(ids, id)
		}
	}
	for id := range inserted {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows = linalg.NewDense(len(ids), base.Cols())
	for r, id := range ids {
		if id < base.Rows() {
			copy(rows.RawRow(r), base.RawRow(id))
		} else {
			copy(rows.RawRow(r), inserted[id])
		}
	}
	return ids, rows
}

// finish runs once the clients have stopped: compact explicitly, then hold
// the engine's exact answers to bit-identity with knn.SearchSetBatch over
// the live set rebuilt from the harness's own bookkeeping. The quality it
// returns is the recall of those answers.
func (w *mutateMix) finish(ctx context.Context, cs []client) (check, float64, error) {
	var chk check
	t0 := time.Now()
	if _, err := w.e.Compact(ctx); err != nil {
		return chk, 0, fmt.Errorf("compact: %w", err)
	}
	w.compactMS = float64(time.Since(t0)) / 1e6
	ids, rows := liveSet(w.data, cs)
	if got := w.e.Len(); got != len(ids) {
		chk.attempted++
		chk.failed++
	}
	nv := w.cfg.size.verifyMutate
	want := knn.SearchSetBatch(rows, w.queries.RowSlice(0, nv), neighbors, knn.Euclidean{}, false)
	id := func(pos int) int { return ids[pos] }
	recall := 0.0
	for i := 0; i < nv; i++ {
		res, err := w.e.SearchMode(ctx, w.queries.RawRow(i), neighbors, serve.ModeExact)
		if err != nil {
			return chk, 0, fmt.Errorf("post-compaction query %d: %w", i, err)
		}
		chk.attempted++
		if !sameNeighbors(res.Neighbors, want[i], id) {
			chk.failed++
		}
		recall += recallOf(res.Neighbors, want[i], id)
	}
	return chk, recall / float64(nv), nil
}

func (w *mutateMix) layers(ctx context.Context, lr *layerRun) error {
	if err := w.denseExact.layers(ctx, lr); err != nil {
		return err
	}
	m := lr.m
	all := lr.measured()
	m.pct("serve.write_p50_us", windowPercentile(lr.cs, all, fieldLat, 0.50, 1e3, opInsert, opDelete))
	m.pct("serve.write_p95_us", windowPercentile(lr.cs, all, fieldLat, 0.95, 1e3, opInsert, opDelete))
	m.pct("serve.insert_p50_us", windowPercentile(lr.cs, all, fieldLat, 0.50, 1e3, opInsert))
	m.pct("serve.delete_p50_us", windowPercentile(lr.cs, all, fieldLat, 0.50, 1e3, opDelete))
	m.one("serve.compact_explicit_ms", w.compactMS)
	return nil
}
