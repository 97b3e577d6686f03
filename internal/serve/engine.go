package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index/lsh"
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

	// drift tracks streaming-PCA basis decay over the mutation stream;
	// nil unless Config.Drift enables it.
	drift *driftMonitor

	counters counters
	lat      *latencyRecorder
}

// snapshot is one immutable generation of the serving state. Queries load
// it once per request, so a Swap never tears a request across two
// generations. n and d describe the snapshot whatever its backend. exact is
// the float64 row source shared by the compactor and the drift monitor: the
// matrix itself for dense snapshots, the store's full-precision region for
// store-backed ones. ids maps row positions to stable mutation IDs
// (ascending); nil means the identity mapping.
type snapshot struct {
	epoch  uint64
	n, d   int
	exact  *linalg.Dense
	ids    []int
	shards []*shard
}

// backend is the per-shard search implementation. The engine's fan-out,
// admission control, and merge are backend-agnostic: any backend that
// returns per-shard top-k lists with global indices in the canonical
// (distance, index) order composes with the rest of the pipeline. Two
// implementations exist: denseShard (float64 matrix + norms + LSH) and
// quantShard (mmap-backed quantized store, internal/store).
type backend interface {
	// searchExact returns the shard's exact top-k over its live rows: dead
	// is the shard's ascending list of tombstoned positions. c is the
	// calling worker's pooled collector, for backends that scan in Go.
	searchExact(query []float64, k int, dead []int, c *knn.Collector) shardOut
	// searchApprox returns an approximate top-k over the live rows plus the
	// number of candidates it refined with exact distances.
	searchApprox(query []float64, k, probes int, dead []int) shardOut
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

// denseShard is the in-memory backend: a view of the snapshot matrix
// (shared backing array, so global row i is local row i-lo and distance
// kernels read the same floats the unsharded path would) with cached
// squared row norms, and the shard's LSH tables.
type denseShard struct {
	flatRows
	lsh *lsh.Index
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
	probes    int
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
// engine serves (use Swap to install new data).
func New(data *linalg.Dense, cfg Config) (*Engine, error) {
	n, d := data.Dims()
	if n == 0 || d == 0 {
		return nil, fmt.Errorf("serve: cannot serve %dx%d data", n, d)
	}
	c := cfg.withDefaults(n, runtime.GOMAXPROCS(0))
	e := newEngine(c)
	snap := buildSnapshot(data, c, 1)
	e.snap.Store(snap)
	e.resetMutationLocked(snap)
	if c.Drift.Components > 0 {
		e.drift = newDriftMonitor(c.Drift, data)
	}
	e.start()
	return e, nil
}

// newEngine allocates an engine shell from a resolved config; the caller
// installs the first snapshot and calls start.
func newEngine(c Config) *Engine {
	return &Engine{
		cfg:    c,
		queue:  make(chan *request, c.QueueDepth),
		shardq: make(chan shardTask, c.Shards*c.Workers),
		lat:    newLatencyRecorder(),
	}
}

// start launches the request and shard worker pools.
func (e *Engine) start() {
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
}

// buildSnapshot partitions data into cfg.Shards contiguous shards and
// builds each shard's norm cache and LSH tables. Shard i's hash family is
// seeded by a splitmix64 derivation of cfg.LSH.Seed, so the snapshot is
// byte-deterministic for a fixed config.
func buildSnapshot(data *linalg.Dense, cfg Config, epoch uint64) *snapshot {
	n := data.Rows()
	snap := &snapshot{epoch: epoch, n: n, d: data.Cols(), exact: data, shards: make([]*shard, cfg.Shards)}
	for s, r := range shardRanges(n, cfg.Shards) {
		lo, hi := r[0], r[1]
		view := data.RowSlice(lo, hi)
		shardCfg := cfg.LSH
		shardCfg.Seed = shardSeed(cfg.LSH.Seed, s)
		snap.shards[s] = &shard{
			lo: lo,
			hi: hi,
			be: &denseShard{
				flatRows: flatRows{rows: view.RawData(), norms: linalg.RowNormsSq(view), lo: lo, d: view.Cols()},
				lsh:      lsh.Build(view, shardCfg),
			},
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

// shardSeed expands the root seed into decorrelated per-shard seeds
// (splitmix64 step, matching the LSH index's own table-seed derivation).
func shardSeed(root int64, s int) int64 {
	z := uint64(root) + (uint64(s)+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
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

// Swap builds a snapshot over new data (a rebuilt reduction, refreshed
// points, or both) and atomically installs it. In-flight queries finish on
// whichever snapshot they loaded; queries admitted after Swap returns see
// only the new one. Pending mutation state is discarded — a Swap replaces
// the served set wholesale, so delta rows and tombstones of the retired
// generation are meaningless and row IDs restart at the new row count.
// Returns the new epoch.
func (e *Engine) Swap(data *linalg.Dense) (uint64, error) {
	n, d := data.Dims()
	if n == 0 || d == 0 {
		return 0, fmt.Errorf("serve: cannot swap in %dx%d data", n, d)
	}
	cfg := e.cfg
	if cfg.Shards > n {
		cfg.Shards = n
	}
	next := buildSnapshot(data, cfg, e.snap.Load().epoch+1)
	e.installSnapshot(next)
	if e.drift != nil {
		e.drift.reseed(data)
	}
	return next.epoch, nil
}

// installSnapshot stores a wholesale-replacement snapshot and resets the
// mutation state under the mutation lock, so a query can never capture the
// new snapshot paired with the old generation's delta buffers or
// tombstones (or vice versa).
func (e *Engine) installSnapshot(next *snapshot) {
	e.mut.mu.Lock()
	e.snap.Store(next)
	e.resetMutationLocked(next)
	e.mut.mu.Unlock()
	e.counters.swaps.Add(1)
}

// SearchMode runs one k-NN query through admission control and the sharded
// worker pools. It blocks until the request is served, its context
// expires (ErrDeadline), the queue rejects it (ErrOverloaded), or the
// engine is closed (ErrClosed). Rejected requests do no search work. A k
// larger than the served set answers with every live row.
func (e *Engine) SearchMode(ctx context.Context, query []float64, k int, mode Mode) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("serve: k=%d must be positive", k)
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
		e.lat.record(r.res.Epoch, r.res.Total)
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
// Everything is sized to the configured shard maximum (Swap and compaction
// only ever clamp the shard count down), so steady-state handling does not
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
	if len(req.query) != snap.d {
		e.mut.mu.RUnlock()
		req.resp <- response{err: fmt.Errorf("%w: query has %d dims, index has %d",
			ErrDims, len(req.query), snap.d)}
		return
	}
	p := len(snap.shards)
	views := sc.views[:p]
	dead := sc.dead[:p]
	copy(views, e.mut.bufs)
	copy(dead, e.mut.deadPos)
	deltaDead := e.mut.deadIDs
	e.mut.mu.RUnlock()

	approx := req.mode == ModeApprox || (req.mode == ModeAuto && req.degraded)
	deltaTotal := 0
	for s := range views {
		deltaTotal += len(views[s].ids)
	}
	// No answer is longer than the captured rows (a snapshot is never
	// empty), so a caller's oversized k neither sizes an allocation nor
	// overflows k+len(dead) in a backend.
	k := min(req.k, snap.n+deltaTotal)
	for s, sh := range snap.shards {
		e.shardq <- shardTask{
			sh:        sh,
			query:     req.query,
			k:         k,
			approx:    approx,
			probes:    e.cfg.Probes,
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
		var o shardOut
		if t.approx {
			o = t.sh.be.searchApprox(t.query, t.k, t.probes, t.dead)
			t.sh.candidates.Add(uint64(o.candidates))
		} else {
			o = t.sh.be.searchExact(t.query, t.k, t.dead, coll)
		}
		if len(t.delta.ids) > 0 {
			o.delta = t.delta.scan(t.query, t.k, t.deltaDead, coll)
		}
		t.out <- o
	}
}

// searchExact scans the shard's live rows (see flatRows.scan).
// knn.SearchSetBatch answers with the scalar scan's top k, rescored and
// ordered the same way, so wherever rank k is not a tie within the
// identity's rounding, merging per-shard results with the canonical
// comparator reproduces the single-threaded batch engine bit for bit.
func (s *denseShard) searchExact(query []float64, k int, dead []int, c *knn.Collector) shardOut {
	return shardOut{neigh: s.scan(query, k, dead, c)}
}

// searchApprox probes the shard's LSH tables, lifts local row ids to global
// ones and drops the dead.
func (s *denseShard) searchApprox(query []float64, k, probes int, dead []int) shardOut {
	res, st := s.lsh.KNNApprox(query, k+len(dead), probes)
	for i := range res {
		res[i].Index += s.lo
	}
	return shardOut{neigh: liveTopK(res, dead, k), candidates: st.CandidateSize}
}
