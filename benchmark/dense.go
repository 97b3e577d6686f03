package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset/synthetic"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/serve"
)

// denseExact serves exact k-NN over an in-memory float64 matrix small enough
// to stay in the last-level cache: the scan and the serve layer each take
// about half of an op, so this is where a change to either shows.
type denseExact struct {
	base
	data, queries *linalg.Dense
	e             *serve.Engine
	want          [][]knn.Neighbor
}

// muskLike generates n data rows plus q held-out query rows from one
// Musk-analogue stream, so data and queries share a distribution.
func muskLike(seed int64, n, q int) (data, queries *linalg.Dense, err error) {
	gen := synthetic.MuskLikeConfig(seed)
	gen.N = n + q
	ds, err := synthetic.Generate(gen)
	if err != nil {
		return nil, nil, err
	}
	return ds.X.RowSlice(0, n), ds.X.RowSlice(n, n+q), nil
}

func (w *denseExact) setup(context.Context) error {
	w.stages = w.stages[:0]
	t0 := time.Now()
	var err error
	w.data, w.queries, err = muskLike(w.cfg.seed, w.cfg.size.denseN, w.cfg.size.denseQ)
	if err != nil {
		return err
	}
	w.stage("dataset.generate_s", time.Since(t0).Seconds())
	t1 := time.Now()
	w.e, err = serve.New(w.data, serve.Config{})
	if err != nil {
		return err
	}
	w.stage("serve.build_s", time.Since(t1).Seconds())
	return nil
}

func (w *denseExact) teardown() {
	if w.e != nil {
		w.e.Close()
		w.e = nil
	}
}

// verify holds the first verifyDense queries to bit-identity with
// knn.SearchSetBatch and requires every held-out query's exact answer to
// have recall 1.
func (w *denseExact) verify(ctx context.Context) (check, error) {
	t0 := time.Now()
	w.want = knn.SearchSetBatch(w.data, w.queries, neighbors, knn.Euclidean{}, false)
	w.gtSec = time.Since(t0).Seconds()
	var chk check
	for i := 0; i < w.queries.Rows(); i++ {
		res, err := w.e.SearchMode(ctx, w.queries.RawRow(i), neighbors, serve.ModeExact)
		if err != nil {
			return chk, fmt.Errorf("query %d: %w", i, err)
		}
		chk.attempted++
		ok := recallOf(res.Neighbors, w.want[i], identity) >= 1
		if i < w.cfg.size.verifyDense {
			ok = sameNeighbors(res.Neighbors, w.want[i], identity)
		}
		if !ok {
			chk.failed++
		}
	}
	return chk, nil
}

func (w *denseExact) clients(t0 time.Time) []client {
	cs := make([]client, procs)
	for i := range cs {
		cs[i] = &readClient{
			l: newOpLog(), e: w.e, queries: w.queries, mode: serve.ModeExact, t0: t0,
			rng: rand.New(rand.NewSource(clientSeed(w.cfg.seed, i))),
		}
	}
	return cs
}

func (w *denseExact) counters() []namedValue { return serveCounters(w.e, nil) }

func (w *denseExact) bypass(t0 time.Time) []client {
	return bypassClients(w.cfg.seed, t0, w.queries, "bypass.knn.scan", normCacheScan(w.data))
}

// finish has no gate of its own: the quality of an exact engine is the
// recall verify already required to be 1.
func (w *denseExact) finish(context.Context, []client) (check, float64, error) {
	return check{}, 1, nil
}

func (w *denseExact) layers(_ context.Context, lr *layerRun) error {
	serveLayers(lr)
	w.report(lr.m)
	setOverhead(lr, "knn.bypass_p50_us")
	denseProbes(lr, w.data, w.queries)
	return nil
}

// sink keeps probe results alive so the compiler cannot drop the probed call.
var sink float64

// normCacheScan is the exact scan a dense engine runs per query, written
// against the same public pieces (cached row norms, linalg.Dot, the knn
// Collector, a scalar rescore of the admitted neighbors): the work under
// serve, without serve.
func normCacheScan(data *linalg.Dense) func(q []float64) []knn.Neighbor {
	norms := linalg.RowNormsSq(data)
	return func(q []float64) []knn.Neighbor {
		qn := linalg.Dot(q, q)
		c := knn.NewCollector(neighbors)
		for i := 0; i < data.Rows(); i++ {
			d2 := norms[i] + qn - 2*linalg.Dot(data.RawRow(i), q)
			if d2 < 0 {
				d2 = 0
			}
			c.Offer(i, d2)
		}
		res := c.Results()
		for i := range res {
			res[i].Dist = knn.Euclidean{}.Distance(data.RawRow(res[i].Index), q)
		}
		knn.SortNeighbors(res)
		return res
	}
}

// denseProbes measures the layers under a dense engine with single-caller
// probes of the knn entry points and the linalg kernels they run on.
func denseProbes(lr *layerRun, data, queries *linalg.Dense) {
	m := lr.m
	one := func(q []float64) *linalg.Dense { return linalg.NewDenseData(1, len(q), q) }
	budget := lr.budget / 5
	nq := queries.Rows()
	next := 0
	query := func() []float64 { next++; return queries.RawRow(next % nq) }
	d, n := probe(lr.tr, "probe.knn.SearchSetBatch", budget, func() {
		knn.SearchSetBatch(data, one(query()), neighbors, knn.Euclidean{}, false)
	})
	m.n("knn.batch_query_us", float64(d)/1e3, n)
	d, n = probe(lr.tr, "probe.knn.Search", budget, func() {
		knn.Search(data, query(), neighbors, knn.Euclidean{}, -1)
	})
	m.n("knn.single_query_us", float64(d)/1e3, n)
	d, n = probe(lr.tr, "probe.linalg.Dot", budget, func() {
		q := query()
		for i := 0; i < data.Rows(); i++ {
			sink += linalg.Dot(q, data.RawRow(i))
		}
	})
	m.n("linalg.dot166_ns", float64(d)/float64(data.Rows()), n)
	d, n = probe(lr.tr, "probe.linalg.MulT", budget, func() { linalg.MulT(queries, data) })
	m.n("linalg.mult_512x166_ms", float64(d)/1e6, n)
}
