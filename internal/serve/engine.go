package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// Engine is a sharded, admission-controlled query server over one dataset
// snapshot, with a live mutation path (Insert/Delete/Compact) layered on
// top. All methods are safe for concurrent use; Close releases the worker
// pools and joins any in-flight compaction.
type Engine struct {
	cfg  Config
	snap atomic.Pointer[snapshot]

	queue  chan *request
	shardq chan shardTask

	// closeMu serializes admission against Close: Search sends on queue
	// only under the read lock with closed false, so Close can safely
	// close(queue) once it holds the write lock and flips closed. The
	// compactor spawn shares the same protocol (see maybeCompact).
	closeMu sync.RWMutex
	closed  bool

	workers      sync.WaitGroup // request workers
	shardWorkers sync.WaitGroup

	// mut is the mutation state (delta buffers, tombstones); see mutate.go.
	// compactMu serializes compaction cycles, compacting coalesces
	// background triggers, compactWG lets Close join a running compactor.
	mut        mutState
	compactMu  sync.Mutex
	compacting atomic.Bool
	compactWG  sync.WaitGroup

	counters counters
	lat      *latencyRecorder
}

// snapshot is one immutable generation of the serving state. Queries load
// it once per request, so a compaction never tears a request across two
// generations. n and d describe the snapshot whatever its backend. exact is
// the float64 row source the compactor rebuilds from: the
// matrix itself for dense snapshots, the store's full-precision region for
// store-backed ones. ids maps row positions to stable mutation IDs
// (ascending); nil means the identity mapping. budgeted reports that the
// shards' backend has a cheaper-than-exact path (quantShard's capped
// rescore); without one an approximate request is served exactly and the
// result says so.
type snapshot struct {
	epoch    uint64
	n, d     int
	exact    *linalg.Dense
	ids      []int
	shards   []*shard
	budgeted bool
}

// backend is the per-shard search implementation. The engine's fan-out,
// admission control, and merge are backend-agnostic: any backend that
// returns per-shard top-k lists with global indices in the canonical
// (distance, index) order composes with the rest of the pipeline. Two
// implementations exist: flatRows (float64 matrix + norms, exact whatever
// approx says) and quantShard (mmap-backed quantized store, internal/store).
type backend interface {
	// search returns the shard's top-k over its live rows: dead is the
	// shard's ascending list of tombstoned positions. approx asks for the
	// backend's cheaper path, if it has one; candidates then counts the
	// points refined with exact distances. c is the calling worker's pooled
	// collector, for backends that scan in Go.
	search(query []float64, k int, approx bool, dead []int, c *knn.Collector) shardOut
}

// shard is one contiguous partition [lo, hi) of the snapshot's rows,
// delegating scans to its backend.
type shard struct {
	lo, hi int
	be     backend

	// candidates accumulates approximate-path refinement work executed on
	// this shard (for EngineStats.ShardCandidates).
	candidates atomic.Uint64
	// tasks counts shard scans executed (exact or approximate).
	tasks atomic.Uint64
}

// request travels through the admission queue.
type request struct {
	ctx      context.Context
	query    []float64
	k        int
	mode     Mode
	degraded bool
	admitted time.Time
	resp     chan response // buffered(1): workers never block responding
}

// response is what a worker hands back to the waiting caller.
type response struct {
	res Result
	err error
}

// shardTask is one shard's share of a fanned-out request: the caller's k,
// the shard's captured dead positions, and its captured delta buffer with
// the dead delta IDs.
type shardTask struct {
	sh        *shard
	query     []float64
	k         int
	approx    bool
	dead      []int
	delta     flatRows
	deltaDead []int
	out       chan<- shardOut // buffered(len(shards)): sends never block
}

// shardOut carries a shard's partial top-k over live rows: neigh holds
// snapshot candidates as global row positions (ID translation happens at
// the merge), delta holds delta candidates as stable IDs.
type shardOut struct {
	neigh      []knn.Neighbor
	delta      []knn.Neighbor
	candidates int
}

// New builds an engine over the rows of data and starts its worker pools.
// The matrix is retained, not copied; it must not be mutated while the
// engine serves (new data is Insert/Delete, or a new Engine).
func New(data *linalg.Dense, cfg Config) (*Engine, error) {
	n, d := data.Dims()
	if n == 0 || d == 0 {
		return nil, fmt.Errorf("serve: cannot serve %dx%d data", n, d)
	}
	c := cfg.withDefaults(n, runtime.GOMAXPROCS(0))
	return newEngine(c, buildSnapshot(data, c, 1)), nil
}

// newEngine starts an engine from a resolved config over its first
// snapshot: empty mutation state (IDs are the snapshot's row positions) and
// both worker pools.
func newEngine(c Config, snap *snapshot) *Engine {
	e := &Engine{
		cfg:    c,
		queue:  make(chan *request, c.QueueDepth),
		shardq: make(chan shardTask, c.Shards*c.Workers),
		lat:    newLatencyRecorder(),
	}
	e.snap.Store(snap)
	e.mut.bufs = newDeltaBufs(len(snap.shards), snap.d)
	e.mut.deadPos = make([][]int, len(snap.shards))
	e.mut.nextID = snap.n
	e.workers.Add(e.cfg.Workers)
	for w := 0; w < e.cfg.Workers; w++ {
		//drlint:ignore goroutinehygiene long-lived server pool: each worker defers workers.Done and Close joins via workers.Wait after closing the queue
		go e.requestWorker()
	}
	e.shardWorkers.Add(e.cfg.ShardWorkers)
	for w := 0; w < e.cfg.ShardWorkers; w++ {
		//drlint:ignore goroutinehygiene long-lived server pool: each worker defers shardWorkers.Done and Close joins via shardWorkers.Wait after closing shardq
		go e.shardWorker()
	}
	return e
}

// buildSnapshot partitions data into cfg.Shards contiguous shards, each a
// flatRows view of the matrix (shared backing array, so global row i is
// local row i-lo and distance kernels read the same floats the unsharded
// path would) with its cached squared row norms.
func buildSnapshot(data *linalg.Dense, cfg Config, epoch uint64) *snapshot {
	n := data.Rows()
	snap := &snapshot{epoch: epoch, n: n, d: data.Cols(), exact: data, shards: make([]*shard, cfg.Shards)}
	for s, r := range shardRanges(n, cfg.Shards) {
		lo, hi := r[0], r[1]
		view := data.RowSlice(lo, hi)
		snap.shards[s] = &shard{
			lo: lo,
			hi: hi,
			be: &flatRows{rows: view.RawData(), norms: linalg.RowNormsSq(view), lo: lo, d: view.Cols()},
		}
	}
	return snap
}

// shardRanges returns the balanced contiguous partition of n rows into p
// [lo, hi) ranges.
func shardRanges(n, p int) [][2]int {
	out := make([][2]int, p)
	base, extra := n/p, n%p
	lo := 0
	for s := 0; s < p; s++ {
		hi := lo + base
		if s < extra {
			hi++
		}
		out[s] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// Dims returns the live snapshot's dimensionality.
func (e *Engine) Dims() int { return e.snap.Load().d }

// Len returns the number of rows currently served: snapshot rows plus live
// delta rows, minus pending tombstones.
func (e *Engine) Len() int {
	e.mut.mu.RLock()
	defer e.mut.mu.RUnlock()
	return e.snap.Load().n - e.mut.snapDead + e.mut.live
}

// Shards returns the number of partitions of the live snapshot.
func (e *Engine) Shards() int { return len(e.snap.Load().shards) }

// SearchMode runs one k-NN query through admission control and the sharded
// worker pools. It blocks until the request is served, its context
// expires (ErrDeadline), the queue rejects it (ErrOverloaded), or the
// engine is closed (ErrClosed). Rejected requests do no search work; a
// query of the wrong width is refused with ErrDims before it can take a
// queue slot (the served dimensionality is fixed for the engine's life). A
// k larger than the served set answers with every live row.
func (e *Engine) SearchMode(ctx context.Context, query []float64, k int, mode Mode) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("serve: k=%d must be positive", k)
	}
	if d := e.Dims(); len(query) != d {
		return Result{}, fmt.Errorf("%w: query has %d dims, index has %d", ErrDims, len(query), d)
	}
	if err := ctx.Err(); err != nil {
		e.counters.deadline.Add(1)
		return Result{}, fmt.Errorf("%w (before admission: %v)", ErrDeadline, err)
	}
	req := &request{
		ctx:      ctx,
		query:    query,
		k:        k,
		mode:     mode,
		admitted: time.Now(),
		resp:     make(chan response, 1),
	}
	// Degrade-at-admission: the queue depth observed now is the backlog
	// this request would wait behind.
	if mode == ModeAuto && len(e.queue) >= e.degradeDepth() {
		req.degraded = true
	}

	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return Result{}, ErrClosed
	}
	select {
	case e.queue <- req:
		e.closeMu.RUnlock()
	default:
		e.closeMu.RUnlock()
		e.counters.rejected.Add(1)
		return Result{}, ErrOverloaded
	}

	select {
	case r := <-req.resp:
		if r.err != nil {
			return Result{}, r.err
		}
		e.counters.served.Add(1)
		if r.res.Approx {
			e.counters.approx.Add(1)
		} else {
			e.counters.exact.Add(1)
		}
		if r.res.Degraded {
			e.counters.degraded.Add(1)
		}
		e.lat.record(r.res.Total)
		return r.res, nil
	case <-ctx.Done():
		// The worker will still complete the request and drop its result
		// into the buffered channel; the caller stops waiting now.
		e.counters.deadline.Add(1)
		return Result{}, fmt.Errorf("%w (while awaiting result: %v)", ErrDeadline, ctx.Err())
	}
}

// degradeDepth is the queue length at which ModeAuto degrades.
func (e *Engine) degradeDepth() int {
	d := int(e.cfg.DegradeWatermark * float64(e.cfg.QueueDepth))
	if d < 1 {
		d = 1
	}
	return d
}

// Close stops admission, drains every queued request (they are served
// normally — admitted work is never dropped), joins both worker pools and
// any in-flight background compaction. Safe to call twice.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	e.closeMu.Unlock()
	close(e.queue) // no sends can follow: Search checks closed under the lock
	e.workers.Wait()
	close(e.shardq)
	e.shardWorkers.Wait()
	// Background compactors check closed (under closeMu.RLock) before
	// registering, so after the flip above no new one can appear.
	e.compactWG.Wait()
}

// reqScratch is one request worker's reusable per-request state: the
// fan-out channel and the captured per-shard delta views and dead lists.
// Everything is sized to the configured shard maximum (compaction only ever
// clamps the shard count down), so steady-state handling does not
// allocate: handle fully drains the channel and overwrites the slices on
// every request.
type reqScratch struct {
	out   chan shardOut
	views []flatRows
	dead  [][]int
}

// requestWorker drains the admission queue until Close, owning one
// reqScratch for its lifetime.
func (e *Engine) requestWorker() {
	defer e.workers.Done()
	sc := &reqScratch{
		out:   make(chan shardOut, e.cfg.Shards),
		views: make([]flatRows, e.cfg.Shards),
		dead:  make([][]int, e.cfg.Shards),
	}
	for req := range e.queue {
		e.handle(req, sc)
	}
}

// handle fans one admitted request over the shard pool and merges. The
// mutation capture (snapshot, delta views, dead-list headers) happens
// atomically under one read lock, so the request sees a point-in-time-
// consistent image of the served set; the scans, which apply the
// tombstones, and the merge then run lock-free against that capture.
//
//drlint:hotpath inline=1
func (e *Engine) handle(req *request, sc *reqScratch) {
	wait := time.Since(req.admitted)
	if err := req.ctx.Err(); err != nil {
		// Expired while queued: reject without scanning. The caller has
		// usually already returned ErrDeadline from its own ctx.Done arm;
		// this response is the worker-side bookkeeping for the same fate.
		req.resp <- response{err: fmt.Errorf("%w (expired while queued: %v)", ErrDeadline, err)}
		return
	}
	e.mut.mu.RLock()
	snap := e.snap.Load()
	p := len(snap.shards)
	views := sc.views[:p]
	dead := sc.dead[:p]
	copy(views, e.mut.bufs)
	copy(dead, e.mut.deadPos)
	deltaDead := e.mut.deadIDs
	e.mut.mu.RUnlock()

	approx := snap.budgeted && (req.mode == ModeApprox || (req.mode == ModeAuto && req.degraded))
	deltaTotal := 0
	for s := range views {
		deltaTotal += len(views[s].ids)
	}
	// No answer is longer than the captured rows (a snapshot is never
	// empty), so a caller's oversized k never sizes an allocation.
	k := min(req.k, snap.n+deltaTotal)
	for s, sh := range snap.shards {
		e.shardq <- shardTask{
			sh:        sh,
			query:     req.query,
			k:         k,
			approx:    approx,
			dead:      dead[s],
			delta:     views[s],
			deltaDead: deltaDead,
			out:       sc.out,
		}
	}
	merged := make([]knn.Neighbor, 0, p*k+min(deltaTotal, p*k))
	candidates := 0
	for s := 0; s < p; s++ {
		o := <-sc.out
		// Snapshot candidates arrive as positions and lift to stable IDs
		// here; delta candidates already carry IDs.
		if snap.ids != nil {
			for j := range o.neigh {
				o.neigh[j].Index = snap.ids[o.neigh[j].Index]
			}
		}
		merged = append(merged, o.neigh...)
		merged = append(merged, o.delta...)
		candidates += o.candidates
	}
	knn.SortNeighbors(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	req.resp <- response{res: Result{
		Neighbors:  merged,
		Approx:     approx,
		Degraded:   req.degraded && approx,
		Epoch:      snap.epoch,
		Wait:       wait,
		Total:      time.Since(req.admitted),
		Candidates: candidates,
	}}
}

// shardWorker executes per-shard scans until Close. It owns one pooled
// collector shared by the exact snapshot scan and the delta scan, so the
// steady state allocates only the result slices.
//
//drlint:hotpath inline=1
func (e *Engine) shardWorker() {
	defer e.shardWorkers.Done()
	coll := knn.NewCollector(1)
	for t := range e.shardq {
		t.sh.tasks.Add(1)
		o := t.sh.be.search(t.query, t.k, t.approx, t.dead, coll)
		if t.approx {
			t.sh.candidates.Add(uint64(o.candidates))
		}
		if len(t.delta.ids) > 0 {
			o.delta = t.delta.scan(t.query, t.k, t.deltaDead, coll)
		}
		t.out <- o
	}
}

// search scans the shard's live rows (see flatRows.scan); a dense shard has
// no cheaper path, so approx changes nothing. Each shard answers with the
// scalar top k of its live rows, as knn.Search and so knn.SearchSetBatch
// would, so merging per-shard results with the canonical comparator
// reproduces the single-threaded batch engine bit for bit.
func (v *flatRows) search(query []float64, k int, _ bool, dead []int, c *knn.Collector) shardOut {
	return shardOut{neigh: v.scan(query, k, dead, c)}
}
