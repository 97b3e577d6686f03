package serve

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// This file is the engine's write path: Insert and Delete mutate the served
// set without stopping the reader side, and a compactor folds the
// accumulated mutations into a fresh snapshot generation.
//
// The design is a two-level LSM shape specialized for similarity search:
//
//   - The snapshot is immutable. Rows carry stable integer IDs that survive
//     compaction (snapshot.ids; nil means IDs equal row positions, the
//     state of a freshly built engine).
//   - Inserts append to per-shard delta buffers (one per snapshot shard,
//     routed by id mod P). Delta rows are brute-force scanned next to the
//     indexed snapshot with the same norm-cache distance identity the dense
//     backend uses, so exact results stay bit-identical to a from-scratch
//     rebuild over the surviving rows.
//   - Deletes tombstone: a deleted snapshot row lands in snapDead (its
//     position) and a deleted delta row in deltaDead (its ID). Both lists
//     are append-only, so a query can capture their headers under a short
//     read lock and filter against a point-in-time-consistent view without
//     holding any lock during the scan or the merge.
//   - The compactor freezes (snapshot, delta prefix, tombstones) under the
//     read lock, builds a rebuilt snapshot off-lock — re-deriving norm
//     caches and LSH tables via buildSnapshot — and installs it through the
//     same atomic.Pointer epoch machinery Swap uses. Mutations that arrive
//     during the build are re-threaded onto the new generation at install
//     time, so nothing is lost and nothing resurrects.
//
// Exactness of the tombstone filter: each shard scan over-fetches
// k + tombSnap[s] candidates, where tombSnap[s] counts the shard's dead
// positions at capture time. At most tombSnap[s] of the returned candidates
// can be dead, so after filtering, every one of the shard's top-k surviving
// rows is still present — the canonical (distance, index) merge then sees
// exactly the candidates a rebuild over survivors would produce. Delta
// scans instead skip dead rows inline (the scan loop is ours), which needs
// no over-fetch at all.
//
// Visibility contract: a query captures (snapshot, delta views, tombstone
// lengths) atomically under mut.mu.RLock. Mutations acknowledged before the
// query was issued are therefore always visible; mutations that land while
// the query is in flight may or may not be, either outcome being a correct
// linearization.

// mutState is the engine's mutation state. Every field is guarded by mu.
// The slices referenced by bufs, snapDead and deltaDead are append-only
// between snapshot installs: readers capture slice headers under RLock and
// may keep reading the captured prefix after releasing the lock.
type mutState struct {
	mu sync.RWMutex
	// bufs holds the delta rows, one buffer per snapshot shard
	// (len(bufs) == len(snap.shards) at all times); insert id i routes to
	// bufs[i%len(bufs)], so lookups need no directory.
	bufs []flatRows
	// snapDead lists tombstoned snapshot positions in delete order;
	// deltaDead lists tombstoned delta-row IDs in delete order.
	snapDead  []int
	deltaDead []int
	// tombSnap counts dead positions per snapshot shard — the query path's
	// per-shard over-fetch budget.
	tombSnap []int
	// tombIDs indexes every live tombstone by ID for duplicate-delete
	// detection. Only the write path reads it.
	tombIDs map[int]struct{}
	// live counts delta rows that are not tombstoned (the write-admission
	// watermark); nextID is the next insert ID, monotone across
	// compactions.
	live   int
	nextID int
}

// flatRows is the one scannable row set of the in-memory paths: row-major
// float64 vectors with index-aligned cached squared norms. A delta buffer
// is an append-only flatRows whose ids (ascending) name its rows — readers
// capture it by value under the read lock and scan that prefix; a dense
// shard is a fixed flatRows over the snapshot matrix with nil ids, row i
// being global position lo+i.
type flatRows struct {
	rows  []float64
	norms []float64
	ids   []int
	lo, d int
}

// newDeltaBufs returns p empty delta buffers for d-wide rows.
func newDeltaBufs(p, d int) []flatRows {
	bufs := make([]flatRows, p)
	for i := range bufs {
		bufs[i].d = d
	}
	return bufs
}

// scan returns the top-k live rows as (index, exact distance) pairs in the
// canonical order. dead is the sorted captured list of tombstoned IDs; rows
// on it are skipped inline (dense shards pass nil: their tombstones are
// filtered at the merge, against an over-fetched k). The admission pass is
// the batch-distance identity ‖x‖²+‖q‖²−2⟨x,q⟩ over the cached norms
// (linalg.Dot paired with linalg.RowNormsSq), and admitted rows are
// rescored with the scalar metric, so snapshot and delta results alike
// merge bit-identically with a from-scratch rebuild over the surviving
// rows.
//
//drlint:hotpath inline=6
func (v *flatRows) scan(query []float64, k int, dead []int, c *knn.Collector) []knn.Neighbor {
	n := len(v.norms)
	if k > n {
		k = n
	}
	c.Reset(k)
	qn := linalg.Dot(query, query)
	for i := 0; i < n; i++ {
		if len(dead) > 0 && containsSorted(dead, v.ids[i]) {
			continue
		}
		d2 := v.norms[i] + qn - 2*linalg.Dot(v.rows[i*v.d:(i+1)*v.d], query)
		if d2 < 0 {
			d2 = 0
		}
		c.Offer(i, d2)
	}
	res := c.Results()
	eu := knn.Euclidean{}
	for i := range res {
		li := res[i].Index
		res[i].Dist = eu.Distance(v.rows[li*v.d:(li+1)*v.d], query)
		if v.ids != nil {
			res[i].Index = v.ids[li]
		} else {
			res[i].Index = v.lo + li
		}
	}
	knn.SortNeighbors(res)
	return res
}

// containsSorted reports whether x occurs in the ascending list s.
//
//drlint:hotpath
func containsSorted(s []int, x int) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// resetMutationLocked reinitializes the mutation state for a freshly
// installed snapshot that carries no pending mutations (New, Swap,
// SwapStore). Caller holds mut.mu, or the engine is not yet started.
func (e *Engine) resetMutationLocked(snap *snapshot) {
	p := len(snap.shards)
	e.mut.bufs = newDeltaBufs(p, snap.d)
	e.mut.snapDead = nil
	e.mut.deltaDead = nil
	e.mut.tombSnap = make([]int, p)
	e.mut.tombIDs = make(map[int]struct{})
	e.mut.live = 0
	if snap.ids == nil {
		e.mut.nextID = snap.n
	} else {
		e.mut.nextID = snap.ids[len(snap.ids)-1] + 1
	}
}

// snapIDOf returns the stable ID of snapshot position pos.
func snapIDOf(snap *snapshot, pos int) int {
	if snap.ids == nil {
		return pos
	}
	return snap.ids[pos]
}

// snapPosOf returns the position of ID id in the snapshot, or -1 when the
// snapshot does not hold it. snap.ids is ascending by construction, so
// non-identity lookups are a binary search.
func snapPosOf(snap *snapshot, id int) int {
	if id < 0 {
		return -1
	}
	if snap.ids == nil {
		if id < snap.n {
			return id
		}
		return -1
	}
	pos, ok := slices.BinarySearch(snap.ids, id)
	if !ok {
		return -1
	}
	return pos
}

// shardIndexOf returns the index of the shard holding snapshot position
// pos. Shard counts are small (≲ processor count), so a linear walk beats a
// search.
func shardIndexOf(snap *snapshot, pos int) int {
	for i, sh := range snap.shards {
		if pos < sh.hi {
			return i
		}
	}
	return len(snap.shards) - 1
}

// Insert adds a vector to the served set and returns its stable ID. The
// vector is copied. Admission mirrors the query path: ErrDeadline when ctx
// already expired, ErrClosed after Close, ErrDims on a width mismatch, and
// ErrOverloaded once the live delta backlog reaches Config.MaxDelta —
// write backpressure until the compactor catches up. An acknowledged
// insert is visible to every query issued after Insert returns.
func (e *Engine) Insert(ctx context.Context, vec []float64) (int, error) {
	if err := ctx.Err(); err != nil {
		e.counters.deadline.Add(1)
		return 0, fmt.Errorf("%w (before insert: %v)", ErrDeadline, err)
	}
	e.closeMu.RLock()
	closed := e.closed
	e.closeMu.RUnlock()
	if closed {
		return 0, ErrClosed
	}

	e.mut.mu.Lock()
	snap := e.snap.Load()
	if len(vec) != snap.d {
		e.mut.mu.Unlock()
		return 0, fmt.Errorf("%w: insert has %d dims, index has %d", ErrDims, len(vec), snap.d)
	}
	if e.mut.live >= e.cfg.MaxDelta {
		backlog := e.mut.live
		e.mut.mu.Unlock()
		e.counters.rejected.Add(1)
		e.maybeCompact()
		return 0, fmt.Errorf("%w (delta backlog at %d rows awaiting compaction)", ErrOverloaded, backlog)
	}
	id := e.mut.nextID
	e.mut.nextID++
	b := &e.mut.bufs[id%len(e.mut.bufs)]
	b.rows = append(b.rows, vec...)
	b.ids = append(b.ids, id)
	b.norms = append(b.norms, linalg.Dot(vec, vec))
	e.mut.live++
	e.mut.mu.Unlock()

	e.counters.inserts.Add(1)
	if e.drift != nil {
		e.drift.observe(vec, +1)
	}
	e.maybeCompact()
	return id, nil
}

// Delete tombstones the row with the given stable ID. Typed errors mirror
// Insert; an ID that is absent — never issued, already deleted, or already
// deleted and compacted away — returns ErrUnknownID. An acknowledged
// delete is invisible to every query issued after Delete returns.
func (e *Engine) Delete(ctx context.Context, id int) error {
	if err := ctx.Err(); err != nil {
		e.counters.deadline.Add(1)
		return fmt.Errorf("%w (before delete: %v)", ErrDeadline, err)
	}
	e.closeMu.RLock()
	closed := e.closed
	e.closeMu.RUnlock()
	if closed {
		return ErrClosed
	}

	e.mut.mu.Lock()
	snap := e.snap.Load()
	if _, dead := e.mut.tombIDs[id]; dead {
		e.mut.mu.Unlock()
		return fmt.Errorf("%w: id %d already deleted", ErrUnknownID, id)
	}
	var row []float64
	if pos := snapPosOf(snap, id); pos >= 0 {
		e.mut.tombIDs[id] = struct{}{}
		e.mut.snapDead = append(e.mut.snapDead, pos)
		e.mut.tombSnap[shardIndexOf(snap, pos)]++
		if e.drift != nil {
			row = snap.exact.RawRow(pos)
		}
	} else if j, bi := deltaIndexOf(&e.mut, id); j >= 0 {
		e.mut.tombIDs[id] = struct{}{}
		e.mut.deltaDead = append(e.mut.deltaDead, id)
		e.mut.live--
		if e.drift != nil {
			b := &e.mut.bufs[bi]
			row = b.rows[j*snap.d : (j+1)*snap.d]
		}
	} else {
		e.mut.mu.Unlock()
		return fmt.Errorf("%w: id %d is not in the served set", ErrUnknownID, id)
	}
	e.mut.mu.Unlock()

	e.counters.deletes.Add(1)
	if e.drift != nil && row != nil {
		e.drift.observe(row, -1)
	}
	e.maybeCompact()
	return nil
}

// deltaIndexOf locates a live-or-dead delta row by ID: (row index within
// its buffer, buffer index), or (-1, -1). Caller holds mut.mu.
func deltaIndexOf(m *mutState, id int) (int, int) {
	if id < 0 || id >= m.nextID || len(m.bufs) == 0 {
		return -1, -1
	}
	bi := id % len(m.bufs)
	j, ok := slices.BinarySearch(m.bufs[bi].ids, id)
	if !ok {
		return -1, -1
	}
	return j, bi
}

// maybeCompact schedules a background compaction when pending mutation
// state crosses Config.CompactAt, the write path is saturated, or the
// drift monitor reports that the frozen PCA basis has decayed. At most one
// compactor runs at a time; redundant triggers are coalesced.
func (e *Engine) maybeCompact() {
	if e.cfg.CompactAt < 0 {
		return
	}
	e.mut.mu.RLock()
	pending := e.mut.live + len(e.mut.snapDead) + len(e.mut.deltaDead)
	saturated := e.mut.live >= e.cfg.MaxDelta
	e.mut.mu.RUnlock()
	if pending == 0 {
		return
	}
	decayed := e.drift != nil && e.drift.decayed()
	if pending < e.cfg.CompactAt && !saturated && !decayed {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	// The closed check and the WaitGroup Add share the read lock, and Close
	// flips closed under the write lock before waiting, so Close never
	// misses a compactor it must join.
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		e.compacting.Store(false)
		return
	}
	e.compactWG.Add(1)
	e.closeMu.RUnlock()
	go func() {
		defer e.compactWG.Done()
		defer e.compacting.Store(false)
		e.compactMu.Lock()
		defer e.compactMu.Unlock()
		e.compactOnce()
	}()
}

// Compact synchronously folds the pending delta rows and tombstones into a
// rebuilt snapshot and installs it, returning the epoch serving when it is
// done. With nothing pending (or when a concurrent Swap supersedes the
// rebuild mid-build) the live epoch is returned unchanged. Queries and
// mutations keep flowing throughout: the build runs off-lock against a
// frozen capture, and only the pointer install takes the write lock.
func (e *Engine) Compact(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		e.counters.deadline.Add(1)
		return 0, fmt.Errorf("%w (before compaction: %v)", ErrDeadline, err)
	}
	e.closeMu.RLock()
	closed := e.closed
	e.closeMu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	return e.compactOnce(), nil
}

// deltaRef addresses one delta row during compaction.
type deltaRef struct{ id, buf, idx int }

// compactOnce performs one capture → build → install cycle. Caller holds
// compactMu (one compaction at a time); mut.mu is taken only for the
// capture and the install, never across the build.
func (e *Engine) compactOnce() uint64 {
	// ---- capture: freeze (snapshot, delta prefixes, tombstones) ----
	e.mut.mu.RLock()
	snap := e.snap.Load()
	if e.mut.live == 0 && len(e.mut.snapDead) == 0 && len(e.mut.deltaDead) == 0 {
		epoch := snap.epoch
		e.mut.mu.RUnlock()
		return epoch
	}
	views := slices.Clone(e.mut.bufs) // each view is its buffer's prefix up to the capture cut
	cutDeadPos := len(e.mut.snapDead)
	cutDeadIDs := len(e.mut.deltaDead)
	frozenDeadPos := append([]int(nil), e.mut.snapDead[:cutDeadPos]...)
	frozenDeadIDs := append([]int(nil), e.mut.deltaDead[:cutDeadIDs]...)
	e.mut.mu.RUnlock()
	slices.Sort(frozenDeadPos)
	slices.Sort(frozenDeadIDs)

	// ---- build: materialize survivors in ascending ID order ----
	// Snapshot IDs are ascending and every delta ID exceeds every snapshot
	// ID (nextID is monotone), so surviving snapshot rows followed by
	// ID-sorted surviving delta rows is the globally sorted order. That
	// order is a function of the mutation history alone — not of when
	// compactions ran — which is what makes compaction deterministic.
	keepPos := make([]int, 0, snap.n)
	for pos := 0; pos < snap.n; pos++ {
		if containsSorted(frozenDeadPos, pos) {
			continue
		}
		keepPos = append(keepPos, pos)
	}
	var refs []deltaRef
	for bi := range views {
		v := &views[bi]
		for j := range v.ids {
			if containsSorted(frozenDeadIDs, v.ids[j]) {
				continue
			}
			refs = append(refs, deltaRef{id: v.ids[j], buf: bi, idx: j})
		}
	}
	slices.SortFunc(refs, func(a, b deltaRef) int { return cmp.Compare(a.id, b.id) })
	total := len(keepPos) + len(refs)
	if total == 0 {
		// Everything captured is deleted: an empty snapshot cannot be
		// built (or partitioned), so the tombstones simply stay pending.
		// Queries remain correct — the filter hides every dead row.
		return snap.epoch
	}
	data := linalg.NewDense(total, snap.d)
	ids := make([]int, total)
	r := 0
	for _, pos := range keepPos {
		copy(data.RawRow(r), snap.exact.RawRow(pos))
		ids[r] = snapIDOf(snap, pos)
		r++
	}
	for _, ref := range refs {
		v := &views[ref.buf]
		copy(data.RawRow(r), v.rows[ref.idx*snap.d:(ref.idx+1)*snap.d])
		ids[r] = ref.id
		r++
	}
	cfg := e.cfg
	if cfg.Shards > total {
		cfg.Shards = total
	}
	next := buildSnapshot(data, cfg, snap.epoch+1)
	// IDs are ascending and unique, so they are the identity permutation
	// exactly when the last one equals total-1.
	if ids[total-1] != total-1 {
		next.ids = ids
	}

	// ---- install: swap the snapshot, re-thread concurrent mutations ----
	e.mut.mu.Lock()
	//drlint:ignore snapcapture deliberate re-validation under mut.mu: a Swap may have retired the captured snapshot during the lock-free build
	if cur := e.snap.Load(); cur != snap {
		// A Swap replaced the dataset while we were building; our rebuild
		// describes a retired generation. Discard it.
		epoch := cur.epoch
		e.mut.mu.Unlock()
		return epoch
	}
	pNew := len(next.shards)
	// Delta rows appended after the capture cut move onto the new
	// generation, re-bucketed by id mod pNew in ascending ID order so every
	// buffer's ids stay sorted.
	var leftovers []deltaRef
	for bi := range e.mut.bufs {
		b := &e.mut.bufs[bi]
		for j := len(views[bi].ids); j < len(b.ids); j++ {
			leftovers = append(leftovers, deltaRef{id: b.ids[j], buf: bi, idx: j})
		}
	}
	slices.SortFunc(leftovers, func(a, b deltaRef) int { return cmp.Compare(a.id, b.id) })
	newBufs := newDeltaBufs(pNew, snap.d)
	for _, ref := range leftovers {
		b := &e.mut.bufs[ref.buf]
		nb := &newBufs[ref.id%pNew]
		nb.rows = append(nb.rows, b.rows[ref.idx*snap.d:(ref.idx+1)*snap.d]...)
		nb.ids = append(nb.ids, ref.id)
		nb.norms = append(nb.norms, b.norms[ref.idx])
	}
	// Tombstones recorded after the capture cut target rows that still
	// exist: either a row the rebuild kept (it becomes a dead position of
	// the new snapshot) or a leftover delta row (its ID stays a delta
	// tombstone). Tombstones before the cut were folded away and vanish.
	var newSnapDead, newDeltaDead []int
	newTombSnap := make([]int, pNew)
	newTombIDs := make(map[int]struct{})
	for _, pos := range e.mut.snapDead[cutDeadPos:] {
		id := snapIDOf(snap, pos)
		np := snapPosOf(next, id)
		newSnapDead = append(newSnapDead, np)
		newTombSnap[shardIndexOf(next, np)]++
		newTombIDs[id] = struct{}{}
	}
	for _, id := range e.mut.deltaDead[cutDeadIDs:] {
		if np := snapPosOf(next, id); np >= 0 {
			newSnapDead = append(newSnapDead, np)
			newTombSnap[shardIndexOf(next, np)]++
		} else {
			newDeltaDead = append(newDeltaDead, id)
		}
		newTombIDs[id] = struct{}{}
	}
	e.mut.bufs = newBufs
	e.mut.snapDead = newSnapDead
	e.mut.deltaDead = newDeltaDead
	e.mut.tombSnap = newTombSnap
	e.mut.tombIDs = newTombIDs
	e.mut.live = len(leftovers) - len(newDeltaDead)
	// nextID is untouched: IDs keep ascending across generations.
	e.snap.Store(next)
	e.mut.mu.Unlock()

	e.counters.swaps.Add(1)
	e.counters.compactions.Add(1)
	if e.drift != nil && e.drift.refit() {
		e.counters.refits.Add(1)
	}
	return next.epoch
}
