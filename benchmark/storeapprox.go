package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset/synthetic"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/store"
)

// storeApprox serves budgeted approximate k-NN from an int8-quantized,
// mmap'd store much larger than the dense workloads: the store's prefix
// sweep, code scan and rescore do nearly all the work and are bound by
// memory bandwidth, and serve's fixed per-op cost is a few percent.
type storeApprox struct {
	base
	dir       string
	st        *store.Store
	e         *serve.Engine
	queries   *linalg.Dense
	want      [][]knn.Neighbor
	fileBytes int64
	verifyMS  float64
	recall    float64
}

// setup streams the data twice — a scale pass, then the encode pass — so the
// float64 matrix never materializes, exactly as a store is built in use.
func (w *storeApprox) setup(context.Context) error {
	w.stages = w.stages[:0]
	n, nq := w.cfg.size.storeN, w.cfg.size.storeQ
	gen := synthetic.MuskLikeConfig(w.cfg.seed)
	gen.N = n + nq
	rs, err := synthetic.NewRowStream(gen)
	if err != nil {
		return err
	}
	// Row generation is timed row by row inside both passes, so the store's
	// own share of each pass is what remains.
	var gen1, gen2 time.Duration
	t0 := time.Now()
	acc := store.NewScaleAccumulator(dims)
	for i := 0; i < n; i++ {
		g := time.Now()
		row, _ := rs.Next()
		gen1 += time.Since(g)
		acc.Add(row)
	}
	w.queries = linalg.NewDense(nq, dims)
	for i := 0; i < nq; i++ {
		row, _ := rs.Next()
		copy(w.queries.RawRow(i), row)
	}
	cfg := store.BuildConfig{Precision: store.Int8, Perm: acc.VarianceOrder()}
	cfg.Mins, cfg.Steps = acc.Scales(store.Int8)
	w.stage("store.scales_s", (time.Since(t0) - gen1).Seconds())

	t1 := time.Now()
	if err := rs.Reset(); err != nil {
		return err
	}
	// The file lives under the benchmark's own output directory, never the
	// system temp directory: a run writes only inside its checkout.
	w.dir, err = os.MkdirTemp(w.cfg.outDir, "store-")
	if err != nil {
		return err
	}
	path := filepath.Join(w.dir, "vectors.drqs")
	sw, err := store.Create(path, n, dims, cfg)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		g := time.Now()
		row, _ := rs.Next()
		gen2 += time.Since(g)
		if err := sw.Append(row); err != nil {
			sw.Close()
			return err
		}
	}
	if err := sw.Close(); err != nil {
		return err
	}
	w.stage("store.write_s", (time.Since(t1) - gen2).Seconds())
	w.stage("dataset.generate_s", (gen1 + gen2).Seconds())

	t2 := time.Now()
	w.st, err = store.Open(path)
	if err != nil {
		return err
	}
	w.stage("store.open_ms", float64(time.Since(t2))/1e6)
	t3 := time.Now()
	w.e, err = serve.NewFromStore(w.st, serve.Config{})
	if err != nil {
		return err
	}
	w.stage("serve.build_s", time.Since(t3).Seconds())
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	w.fileBytes = fi.Size()
	return nil
}

func (w *storeApprox) teardown() {
	if w.e != nil {
		w.e.Close()
		w.e = nil
	}
	if w.st != nil {
		w.st.Close()
		w.st = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// verify computes exact ground truth over the store's own full-precision
// region, holds the first verifyStore queries' ModeExact answers to
// bit-identity with it, and measures the approximate path's recall over
// every held-out query.
func (w *storeApprox) verify(ctx context.Context) (check, error) {
	t0 := time.Now()
	w.want = knn.SearchSetBatch(w.st.ExactMatrix(), w.queries, neighbors, knn.Euclidean{}, false)
	w.gtSec = time.Since(t0).Seconds()
	var chk check
	t1 := time.Now()
	for i := 0; i < w.cfg.size.verifyStore; i++ {
		res, err := w.e.SearchMode(ctx, w.queries.RawRow(i), neighbors, serve.ModeExact)
		if err != nil {
			return chk, fmt.Errorf("exact query %d: %w", i, err)
		}
		chk.attempted++
		if !sameNeighbors(res.Neighbors, w.want[i], identity) {
			chk.failed++
		}
	}
	w.verifyMS = float64(time.Since(t1)) / 1e6
	sum := 0.0
	for i := 0; i < w.queries.Rows(); i++ {
		res, err := w.e.SearchMode(ctx, w.queries.RawRow(i), neighbors, serve.ModeApprox)
		if err != nil {
			return chk, fmt.Errorf("approx query %d: %w", i, err)
		}
		chk.attempted++
		if len(res.Neighbors) != neighbors {
			chk.failed++
		}
		sum += recallOf(res.Neighbors, w.want[i], identity)
	}
	w.recall = sum / float64(w.queries.Rows())
	// Drop the exact pages the ground truth faulted in, then ask every query
	// once more: the pages its rescore needs come back from the file, so the
	// measured windows run on the store's own working set, already resident.
	w.st.DropExactPages()
	for i := 0; i < w.queries.Rows(); i++ {
		if _, err := w.e.SearchMode(ctx, w.queries.RawRow(i), neighbors, serve.ModeApprox); err != nil {
			return chk, fmt.Errorf("approx query %d after the page drop: %w", i, err)
		}
	}
	return chk, nil
}

func (w *storeApprox) clients(t0 time.Time) []client {
	cs := make([]client, procs)
	for i := range cs {
		cs[i] = &readClient{
			l: newOpLog(), e: w.e, queries: w.queries, mode: serve.ModeApprox, t0: t0,
			rng: rand.New(rand.NewSource(clientSeed(w.cfg.seed, i))),
		}
	}
	return cs
}

func (w *storeApprox) counters() []namedValue { return serveCounters(w.e, w.st) }

// rescoreBudget is the engine's rescore work per query: its default budget
// is 32·k per shard.
func (w *storeApprox) rescoreBudget() int { return 32 * neighbors * w.e.Shards() }

func (w *storeApprox) bypass(t0 time.Time) []client {
	rescore := w.rescoreBudget()
	return bypassClients(w.cfg.seed, t0, w.queries, "bypass.store.Search", func(q []float64) []knn.Neighbor {
		return w.st.Search(q, neighbors, rescore)
	})
}

func (w *storeApprox) finish(context.Context, []client) (check, float64, error) {
	return check{}, w.recall, nil
}

func (w *storeApprox) layers(_ context.Context, lr *layerRun) error {
	serveLayers(lr)
	m := lr.m
	w.report(lr.m)
	m.n("store.exact_verify_ms", w.verifyMS, w.cfg.size.verifyStore)
	n := w.st.Len()
	m.one("store.space_ratio", float64(w.fileBytes)/float64(n*dims*8))
	bytesScan := float64(w.st.BytesPerVectorScan())
	m.one("store.bytes_per_vector_scan", bytesScan)

	snaps := lr.tr.counters
	served := counterDelta(snaps, "served")
	scanned, rescored := counterDelta(snaps, "scanned"), counterDelta(snaps, "rescored")
	var wall time.Duration
	for _, win := range lr.measured() {
		wall += win.wall
	}
	if served > 0 && rescored > 0 && wall > 0 {
		m.one("store.rows_scanned_per_op", scanned/served)
		m.one("store.rescored_per_op", rescored/served)
		m.one("store.rescore_hit_ratio", neighbors*served/rescored)
		// Computed bytes (rows scanned × resident scan bytes per row), not
		// measured traffic: an abandoning scan touches fewer.
		m.one("store.scan_gbps", scanned*bytesScan/wall.Seconds()/1e9)
	}

	setOverhead(lr, "store.bypass_p50_us")
	rescore := w.rescoreBudget()

	budget := lr.budget / 5
	next := 0
	query := func() []float64 { next++; return w.queries.RawRow(next % w.queries.Rows()) }
	d, cnt := probe(lr.tr, "probe.store.Search", budget, func() { w.st.Search(query(), neighbors, rescore) })
	m.n("store.search_p50_us", float64(d)/1e3, cnt)
	d, cnt = probe(lr.tr, "probe.store.SearchRangeWorkers", budget, func() {
		w.st.SearchRangeWorkers(query(), 0, n, neighbors, rescore, 2)
	})
	m.n("store.search_workers_p50_us", float64(d)/1e3, cnt)

	// The integer kernel alone, streaming a buffer the size of the code
	// plane: the floor under the scan.
	stride := (dims + 15) / 16 * 16
	rng := rand.New(rand.NewSource(w.cfg.seed))
	codes := make([]uint8, n*stride)
	rng.Read(codes)
	u := make([]uint16, dims)
	for i := range u {
		u[i] = uint16(rng.Intn(linalg.MaxQ15 + 1))
	}
	var out [8]int64
	d, cnt = probe(lr.tr, "probe.linalg.DotQ15U8x8", budget, func() {
		for r := 0; r+8 <= n; r += 8 {
			linalg.DotQ15U8x8(u, codes[r*stride:], stride, &out)
		}
	})
	m.n("linalg.dotq15u8x8_ns_per_row", float64(d)/float64(n/8*8), cnt)
	return nil
}
