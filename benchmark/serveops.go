package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/store"
)

// neighbors is k on every serve workload.
const neighbors = 10

// clientSeed derives client w's private stream from the run seed.
func clientSeed(seed int64, w int) int64 { return seed + int64(w+1)*0x9E3779B9 }

// sameNeighbors reports whether got equals want answer for answer: same
// length, same order, same index (after mapping want's row position to a
// stable ID) and the same distance bits.
func sameNeighbors(got, want []knn.Neighbor, id func(int) int) bool {
	if len(got) != len(want) {
		return false
	}
	for j := range want {
		if got[j].Index != id(want[j].Index) ||
			math.Float64bits(got[j].Dist) != math.Float64bits(want[j].Dist) {
			return false
		}
	}
	return true
}

func identity(i int) int { return i }

// recallOf is |got ∩ want| / |want| for one query.
func recallOf(got, want []knn.Neighbor, id func(int) int) float64 {
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for _, w := range want {
		for _, g := range got {
			if g.Index == id(w.Index) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(want))
}

// readClient is a closed-loop k-NN caller: every step takes the next held-out
// query of its own seeded stream and waits for the engine's reply.
type readClient struct {
	l       *opLog
	e       *serve.Engine
	queries *linalg.Dense
	mode    serve.Mode
	rng     *rand.Rand
	t0      time.Time
	order   []int // the current pass over the queries
	asked   int   // how many of order this pass has asked
}

// next returns the row of the next query. The client asks every held-out
// query once per pass, each pass in a fresh seeded order: all queries are
// then asked equally often and each one's repetitions lie a pass apart, all
// over the run. Drawn at random with replacement the counts scatter (18 ± 4
// on store_approx), and the queries asked least are the likeliest to have had
// no undisturbed repetition: they would set the p95 over the queries.
func (c *readClient) next() int {
	if c.order == nil {
		c.order = c.rng.Perm(c.queries.Rows())
	}
	if c.asked == len(c.order) {
		c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
		c.asked = 0
	}
	c.asked++
	return c.order[c.asked-1]
}

func (c *readClient) log() *opLog { return c.l }

func (c *readClient) now() int64 { return int64(time.Since(c.t0)) }

func (c *readClient) step(ctx context.Context) {
	opStart := c.now()
	row := c.next()
	q := c.queries.RawRow(row)
	t0 := c.now()
	res, err := c.e.SearchMode(ctx, q, neighbors, c.mode)
	t1 := c.now()
	c.l.done(sample{kind: opPrimary, key: uint32(row), lat: t1 - t0, a: int64(res.Wait), b: int64(res.Total)},
		err != nil || len(res.Neighbors) != neighbors)
	if c.l.spans != nil {
		traceServeOp(c.l, "serve.SearchMode", opStart, t0, t1, c.now(), res.Wait, res.Total)
	}
}

// traceServeOp records one operation's spans: the root op, the call into
// serve, and — for a search — the wait/exec/handoff split reconstructed from
// the public Result.Wait and Result.Total (handoff is what the client saw
// beyond the engine's own admission-to-merge total).
func traceServeOp(l *opLog, call string, opStart, t0, t1, opEnd int64, wait, total time.Duration) {
	l.nextOp++
	op := l.nextOp
	root := l.spans.add(0, op, "op", opStart, opEnd)
	callID := l.spans.add(root, op, call, t0, t1)
	if total <= 0 {
		return
	}
	l.spans.add(callID, op, "serve.wait", t0, t0+int64(wait))
	l.spans.add(callID, op, "serve.exec", t0+int64(wait), t0+int64(total))
	l.spans.add(callID, op, "serve.handoff", t0+int64(total), t1)
}

// bypassClient calls the layer under serve directly with the same queries:
// the difference between its latency and the served op's is serve's cost.
type bypassClient struct {
	l       *opLog
	queries *linalg.Dense
	rng     *rand.Rand
	t0      time.Time
	name    string
	search  func(q []float64) []knn.Neighbor
}

func (c *bypassClient) log() *opLog { return c.l }

func (c *bypassClient) step(context.Context) {
	q := c.queries.RawRow(c.rng.Intn(c.queries.Rows()))
	t0 := int64(time.Since(c.t0))
	res := c.search(q)
	t1 := int64(time.Since(c.t0))
	c.l.done(sample{kind: opPrimary, lat: t1 - t0}, len(res) != neighbors)
	if c.l.spans != nil {
		c.l.spans.add(0, 0, c.name, t0, t1)
	}
}

// bypassClients returns one bypassClient per serve client.
func bypassClients(seed int64, t0 time.Time, queries *linalg.Dense, name string, search func(q []float64) []knn.Neighbor) []client {
	cs := make([]client, procs)
	for i := range cs {
		cs[i] = &bypassClient{
			l: newOpLog(), queries: queries, name: name, search: search, t0: t0,
			rng: rand.New(rand.NewSource(clientSeed(seed, i))),
		}
	}
	return cs
}

// setOverhead stores the bypass loop's p50 under the layer's name and serve's
// overhead: the served op's p50 minus the bypass loop's.
func setOverhead(lr *layerRun, bypassMetric string) {
	lr.m.pct(bypassMetric, lr.bypass)
	lr.m.n("serve.overhead_p50_us", lr.op.value-lr.bypass.value, lr.bypass.samples)
}

// serveCounters reads the engine's (and, when present, the store's) public
// counters in a fixed order.
func serveCounters(e *serve.Engine, st *store.Store) []namedValue {
	s := e.Stats()
	var tasks uint64
	for _, t := range s.ShardTasks {
		tasks += t
	}
	vals := []namedValue{
		{"served", float64(s.Served)},
		{"rejected", float64(s.Rejected)},
		{"deadline", float64(s.Deadline)},
		{"degraded", float64(s.Degraded)},
		{"swaps", float64(s.Swaps)},
		{"epoch", float64(s.Epoch)},
		{"inserts", float64(s.Inserts)},
		{"deletes", float64(s.Deletes)},
		{"compactions", float64(s.Compactions)},
		{"delta_rows", float64(s.DeltaRows)},
		{"tombstones", float64(s.Tombstones)},
		{"shard_tasks", float64(tasks)},
	}
	if st != nil {
		ss := st.Stats()
		vals = append(vals, namedValue{"scanned", float64(ss.Scanned)}, namedValue{"rescored", float64(ss.Rescored)})
	}
	return vals
}

// counterDelta is how far one counter moved inside the measured windows: the
// sum over windows of its reading at the end minus its reading at the start.
func counterDelta(snaps []counterSnap, name string) float64 {
	var sum, start float64
	for _, s := range snaps {
		switch s.Label {
		case "window-start":
			start = counterAt(s, name)
		case "window-end":
			sum += counterAt(s, name) - start
		}
	}
	return sum
}

func counterAt(s counterSnap, name string) float64 {
	for _, v := range s.Values {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

// serveLayers fills the serve layer's metrics shared by the three serve
// workloads, from the client samples and the counter snapshots of the
// measured windows.
func serveLayers(lr *layerRun) {
	m := lr.m
	all := lr.measured()
	m.pct("serve.wait_p50_us", windowPercentile(lr.cs, all, fieldA, 0.50, 1e3, opPrimary))
	m.pct("serve.wait_p95_us", windowPercentile(lr.cs, all, fieldA, 0.95, 1e3, opPrimary))
	m.pct("serve.total_p50_us", windowPercentile(lr.cs, all, fieldB, 0.50, 1e3, opPrimary))
	m.pct("serve.handoff_p50_us", windowPercentile(lr.cs, all, func(s sample) int64 { return s.lat - s.b }, 0.50, 1e3, opPrimary))
	m.pct("serve.op_p99_us", windowPercentile(lr.cs, all, fieldLat, 0.99, 1e3, opPrimary))
	m.one("serve.allocs_per_op", lr.allocsPerOp)
	m.one("serve.gc_pause_ms", lr.gcPauseMS)

	snaps := lr.tr.counters
	for _, c := range []struct{ metric, counter string }{
		{"serve.rejected", "rejected"},
		{"serve.deadline", "deadline"},
		{"serve.degraded", "degraded"},
		{"serve.compactions", "compactions"},
		{"serve.epoch_swaps", "swaps"},
	} {
		m.one(c.metric, counterDelta(snaps, c.counter))
	}

	// Per-shard task counters restart with every snapshot swap, so tasks
	// per op is summed over consecutive readings of one epoch only.
	var tasks, served, deltaRows, tombstones float64
	samples := 0
	for i, s := range snaps {
		if s.Label == "sample" {
			deltaRows += counterAt(s, "delta_rows")
			tombstones += counterAt(s, "tombstones")
			samples++
		}
		if i > 0 && int64(counterAt(s, "epoch")) == int64(counterAt(snaps[i-1], "epoch")) {
			tasks += counterAt(s, "shard_tasks") - counterAt(snaps[i-1], "shard_tasks")
			served += counterAt(s, "served") - counterAt(snaps[i-1], "served")
		}
	}
	if served > 0 {
		m.one("serve.shard_tasks_per_op", tasks/served)
	}
	if samples > 0 {
		m.n("serve.delta_rows_mean", deltaRows/float64(samples), samples)
		m.n("serve.tombstones_mean", tombstones/float64(samples), samples)
	}
}
