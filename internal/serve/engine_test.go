package serve

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/store"
)

// randMatrix fills an n x d matrix from a seeded source.
func randMatrix(rng *rand.Rand, n, d int) *linalg.Dense {
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		row := m.RawRow(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return m
}

// newTestEngine builds a small engine with a roomy queue so tests that do
// not target admission control never see rejections.
func newTestEngine(t *testing.T, data *linalg.Dense, shards int) *Engine {
	t.Helper()
	e, err := New(data, Config{
		Shards:     shards,
		QueueDepth: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// searchAll issues one exact query per row of queries and collects results.
func searchAll(t *testing.T, e *Engine, queries *linalg.Dense, k int, mode Mode) [][]knn.Neighbor {
	t.Helper()
	out := make([][]knn.Neighbor, queries.Rows())
	for i := range out {
		res, err := e.SearchMode(context.Background(), queries.RawRow(i), k, mode)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = res.Neighbors
	}
	return out
}

// rawRequest is a request as SearchMode builds it, for tests that put one on
// the queue themselves to fix what admission would have decided.
func rawRequest(query []float64, k int, mode Mode) *request {
	return &request{
		ctx: context.Background(), query: query, k: k, mode: mode,
		admitted: time.Now(), resp: make(chan response, 1),
	}
}

// TestDenseApproxIsExact: a dense snapshot has no cheaper path, so ModeApprox
// and a ModeAuto request that admission marked degraded are served by the
// exact scan — bit-identical to ModeExact — and say so: not Approx, not
// Degraded, no Candidates, in the result and in the counters.
func TestDenseApproxIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, d, nq, k = 800, 16, 40, 5
	data := randMatrix(rng, n, d)
	queries := randMatrix(rng, nq, d)
	e := newTestEngine(t, data, 4)

	want := searchAll(t, e, queries, k, ModeExact)
	check := func(i int, name string, res Result) {
		t.Helper()
		if res.Approx || res.Degraded || res.Candidates != 0 {
			t.Fatalf("query %d %s: approx=%v degraded=%v candidates=%d on a dense engine",
				i, name, res.Approx, res.Degraded, res.Candidates)
		}
		if !slices.Equal(res.Neighbors, want[i]) {
			t.Fatalf("query %d %s: %+v, exact path answers %+v", i, name, res.Neighbors, want[i])
		}
	}
	for i := 0; i < nq; i++ {
		res, err := e.SearchMode(context.Background(), queries.RawRow(i), k, ModeApprox)
		if err != nil {
			t.Fatal(err)
		}
		check(i, "ModeApprox", res)
		// Forced degradation: the request as SearchMode enqueues it when the
		// queue is past the watermark.
		req := rawRequest(queries.RawRow(i), k, ModeAuto)
		req.degraded = true
		e.queue <- req
		r := <-req.resp
		if r.err != nil {
			t.Fatal(r.err)
		}
		check(i, "degraded ModeAuto", r.res)
	}
	st := e.Stats()
	if st.Approx != 0 || st.Degraded != 0 || st.Exact != st.Served {
		t.Fatalf("stats approx=%d degraded=%d exact=%d served=%d, want every answer counted exact",
			st.Approx, st.Degraded, st.Exact, st.Served)
	}
	for s, c := range st.ShardCandidates {
		if c != 0 {
			t.Fatalf("shard %d counts %d approximate candidates", s, c)
		}
	}
}

// TestAdmissionOverload saturates a tiny queue with no workers able to keep
// up (the workers are blocked by a slow shard pool is not simulable, so the
// test floods a 1-worker engine) and requires typed ErrOverloaded.
func TestAdmissionOverload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Large enough that one exact scan takes real time: a single worker
	// cannot keep a depth-4 queue drained against 16 bursting clients.
	data := randMatrix(rng, 100000, 16)
	e, err := New(data, Config{
		Shards:       2,
		Workers:      1,
		ShardWorkers: 1,
		QueueDepth:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const clients, perClient = 16, 10
	var mu sync.Mutex
	counts := map[string]int{}
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, err := e.SearchMode(context.Background(), data.RawRow((c*perClient+i)%data.Rows()), 5, ModeExact)
				mu.Lock()
				switch {
				case err == nil:
					counts["served"]++
				case errors.Is(err, ErrOverloaded):
					counts["overloaded"]++
				default:
					counts["other"]++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if counts["other"] != 0 {
		t.Fatalf("untyped errors under overload: %v", counts)
	}
	if counts["served"]+counts["overloaded"] != clients*perClient {
		t.Fatalf("lost responses: %v (want %d total)", counts, clients*perClient)
	}
	if counts["overloaded"] == 0 {
		t.Fatalf("flooding a depth-4 queue produced no ErrOverloaded: %v", counts)
	}
	st := e.Stats()
	if st.Rejected != uint64(counts["overloaded"]) {
		t.Fatalf("stats rejected %d, observed %d", st.Rejected, counts["overloaded"])
	}
	if st.Served != uint64(counts["served"]) {
		t.Fatalf("stats served %d, observed %d", st.Served, counts["served"])
	}
}

// TestDegradation fills the queue beyond the watermark and checks that
// ModeAuto requests admitted above it come back flagged Degraded+Approx
// while ModeExact requests never degrade. The engine is store-backed: that
// is the snapshot with a cheaper path to degrade to.
func TestDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Expensive exact scans with a deep-enough queue: ModeAuto requests
	// arriving behind the backlog cross the 0.25 watermark and degrade.
	data := randMatrix(rng, 100000, 16)
	e, err := NewFromStore(openTestStore(t, data, store.BuildConfig{}), Config{
		Shards:           2,
		Workers:          1,
		ShardWorkers:     1,
		QueueDepth:       32,
		DegradeWatermark: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const clients, perClient = 24, 10
	var degraded, servedExact atomic64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := e.SearchMode(context.Background(), data.RawRow((c*perClient+i)%data.Rows()), 5, ModeAuto)
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				if res.Degraded {
					if !res.Approx {
						t.Error("degraded result not marked approximate")
					}
					degraded.add(1)
				} else if !res.Approx {
					servedExact.add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if degraded.load() == 0 {
		t.Fatalf("no request degraded despite a 0.25 watermark under 24-way load")
	}
	st := e.Stats()
	if st.Degraded != uint64(degraded.load()) {
		t.Fatalf("stats degraded %d, observed %d", st.Degraded, degraded.load())
	}
	if st.Exact != uint64(servedExact.load()) {
		t.Fatalf("stats exact %d, observed %d", st.Exact, servedExact.load())
	}
}

// TestDeadline: an already-expired context is rejected with ErrDeadline
// before admission; a deadline expiring mid-queue also surfaces ErrDeadline.
func TestDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randMatrix(rng, 500, 16)
	e := newTestEngine(t, data, 2)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := e.SearchMode(ctx, data.RawRow(0), 3, ModeExact)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired context returned %v, want ErrDeadline", err)
	}
	st := e.Stats()
	if st.Deadline == 0 {
		t.Fatalf("deadline rejection not counted")
	}
}

// TestExpiredWhileQueued drives the worker side of an expiry: a request
// whose context ends after admission but before a worker takes it is
// answered without a scan, and its error wraps ErrDeadline. The caller
// usually returns first from its own ctx.Done arm, so only handle itself
// shows this error; the test calls it directly with a cancelled request.
func TestExpiredWhileQueued(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := randMatrix(rng, 200, 8)
	e := newTestEngine(t, data, 2)
	req := rawRequest(data.RawRow(0), 3, ModeExact)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req.ctx = ctx
	e.handle(req, &reqScratch{})
	select {
	case r := <-req.resp:
		if !errors.Is(r.err, ErrDeadline) {
			t.Fatalf("expired-while-queued request answered %v, want ErrDeadline", r.err)
		}
	default:
		t.Fatal("handle sent no response for an expired request")
	}
}

// TestClose: closed engines reject with ErrClosed, Close is idempotent, and
// requests in flight at Close time still complete.
func TestClose(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := randMatrix(rng, 400, 8)
	e, err := New(data, Config{Shards: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SearchMode(context.Background(), data.RawRow(0), 3, ModeAuto); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.SearchMode(context.Background(), data.RawRow(0), 3, ModeAuto); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine returned %v, want ErrClosed", err)
	}
}

// TestBadInputs covers per-request validation.
func TestBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := randMatrix(rng, 50, 5)
	e := newTestEngine(t, data, 2)
	if _, err := e.SearchMode(context.Background(), data.RawRow(0), 0, ModeAuto); err == nil {
		t.Fatalf("k=0 accepted")
	}
	if _, err := e.SearchMode(context.Background(), []float64{1, 2}, 3, ModeAuto); !errors.Is(err, ErrDims) {
		t.Fatalf("short query returned %v, want ErrDims", err)
	}
}

// TestWrongWidthRefusedAtAdmission: the served dimensionality is fixed for
// the engine's life, so a wrong-width query is ErrDims before it can take a
// queue slot — even when there is none to take — and is not counted as an
// overload rejection.
func TestWrongWidthRefusedAtAdmission(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := randMatrix(rng, 50, 6)
	e, err := New(data, Config{Shards: 2, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Park the one request worker on the mutation lock, then fill the queue:
	// of Workers + QueueDepth blocking sends the worker can take one, so when
	// the last send returns the queue is full and stays full.
	e.mut.mu.Lock()
	fillers := make([]*request, 3)
	for i := range fillers {
		fillers[i] = rawRequest(data.RawRow(i), 1, ModeExact)
		e.queue <- fillers[i]
	}
	_, wide := e.SearchMode(context.Background(), data.RawRow(0), 3, ModeExact)
	_, narrow := e.SearchMode(context.Background(), []float64{1, 2}, 3, ModeExact)
	e.mut.mu.Unlock()
	for _, f := range fillers {
		if r := <-f.resp; r.err != nil {
			t.Fatal(r.err)
		}
	}
	if !errors.Is(wide, ErrOverloaded) {
		t.Fatalf("right-width query against a full queue returned %v, want ErrOverloaded", wide)
	}
	if !errors.Is(narrow, ErrDims) {
		t.Fatalf("2-wide query on 6-wide data against a full queue returned %v, want ErrDims", narrow)
	}
	if rejected := e.Stats().Rejected; rejected != 1 {
		t.Fatalf("rejected=%d after one overload and one wrong-width query, want 1", rejected)
	}
}

// TestStatsLatency: served requests populate the latency histogram.
func TestStatsLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := randMatrix(rng, 300, 10)
	e := newTestEngine(t, data, 2)
	for i := 0; i < 20; i++ {
		if _, err := e.SearchMode(context.Background(), data.RawRow(i), 3, ModeAuto); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Served != 20 {
		t.Fatalf("served %d, want 20", st.Served)
	}
	if st.LatencyP50 <= 0 || st.LatencyP99 < st.LatencyP50 {
		t.Fatalf("latency percentiles p50=%v p99=%v", st.LatencyP50, st.LatencyP99)
	}
	var tasks uint64
	for _, v := range st.ShardTasks {
		tasks += v
	}
	if tasks != 20*uint64(st.Shards) {
		t.Fatalf("shard tasks %d, want %d", tasks, 20*st.Shards)
	}
}

// atomic64 is a tiny test helper counter.
type atomic64 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic64) add(n int) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
