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
//   - Deletes tombstone: a deleted snapshot row lands on its shard's
//     ascending list of dead positions and a deleted delta row on the one
//     ascending list of dead delta IDs. Delete replaces a list copy-on-write,
//     so a query can capture the headers under a short read lock and scan
//     against a point-in-time-consistent view without holding any lock.
//   - The compactor freezes (snapshot, delta prefix, tombstones) under the
//     read lock, builds a rebuilt snapshot off-lock — re-deriving the norm
//     caches via buildSnapshot — and installs it with one atomic.Pointer
//     store. It is the only writer of Engine.snap after construction, and
//     compactMu runs one cycle at a time, so the snapshot it captured is
//     still the live one when it installs. Mutations that arrive during
//     the build are re-threaded onto the new generation at install time,
//     so nothing is lost and nothing resurrects.
//
// Exactness of the tombstone filter: every scan applies the tombstones
// itself, and none over-fetches. flatRows.scan (dense shards and delta
// buffers) visits rows in ascending position or ID with a cursor over the
// captured ascending dead list and never offers a dead row to its
// collector; the quantized store's sweep (store.SearchLive, behind
// quantShard) walks the shard's dead list the same way, checking a row only
// once it would be offered or survives the prefix bound. A filter that skips
// rows and never changes an admitted value leaves each scan with the top-k
// over the live rows — what a shard rebuilt over the survivors collects, at
// the same distances, since a distance depends on the row and the query
// alone — so the canonical (distance, index) merge sees the candidates a
// rebuild would produce, and an approximate rescore budget counts live
// candidates however many rows are dead.
//
// Visibility contract: a query captures (snapshot, delta views, tombstone
// lists) atomically under mut.mu.RLock. Mutations acknowledged before the
// query was issued are therefore always visible; mutations that land while
// the query is in flight may or may not be, either outcome being a correct
// linearization.

// mutState is the engine's mutation state. Every field is guarded by mu.
// Delta buffers are append-only between snapshot installs and dead lists are
// replaced, never written in place: readers capture slice headers under
// RLock and keep reading what they captured after releasing the lock.
type mutState struct {
	mu sync.RWMutex
	// bufs holds the delta rows, one buffer per snapshot shard
	// (len(bufs) == len(snap.shards) at all times); insert id i routes to
	// bufs[i%len(bufs)], so lookups need no directory.
	bufs []flatRows
	// deadPos[s] lists shard s's tombstoned snapshot positions (snapDead in
	// total) and deadIDs the tombstoned delta-row IDs, both ascending: the
	// one record of pending tombstones, for scans, Delete and the compactor.
	deadPos  [][]int
	deadIDs  []int
	snapDead int
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

// key names row i the way results and dead lists do: by stable ID in a delta
// buffer, by global position in a dense shard.
func (v *flatRows) key(i int) int {
	if v.ids != nil {
		return v.ids[i]
	}
	return v.lo + i
}

// scan returns the top-k live rows as (index, exact distance) pairs in the
// canonical order: the k nearest under the scalar Euclidean metric, ties
// broken by key, which is what knn.Search returns over the live rows. dead
// is the captured ascending tombstone list — global positions for a dense
// shard, IDs for a delta buffer; rows visit in the same ascending order, so
// a cursor over it skips dead rows at O(1) each and a tombstone saves its
// row's Dot. The admission pass collects the k+1 nearest by the
// batch-distance identity ‖x‖²+‖q‖²−2⟨x,q⟩ over the cached norms
// (linalg.Dot paired with linalg.RowNormsSq). Where knn.NormCacheSeparated
// vouches for the first k — the gap test knn.SearchSetBatch applies — they
// are rescored with the scalar metric; otherwise (duplicates, a tie at rank
// k, cancellation) the live rows are ranked by the scalar metric itself.
// Snapshot and delta results alike therefore merge bit-identically with a
// from-scratch rebuild over the surviving rows.
//
//drlint:hotpath inline=9
func (v *flatRows) scan(query []float64, k int, dead []int, c *knn.Collector) []knn.Neighbor {
	n := len(v.norms)
	k = min(k, n)
	c.Reset(min(k+1, n))
	qn := linalg.Dot(query, query)
	maxNorm := 0.0 // over the live rows; a NaN propagates and fails the gap test
	cur := sortedCursor(dead)
	for i := 0; i < n; i++ {
		if len(cur) > 0 && cur.has(v.key(i)) {
			continue
		}
		maxNorm = max(maxNorm, v.norms[i])
		d2 := v.norms[i] + qn - 2*linalg.Dot(v.rows[i*v.d:(i+1)*v.d], query)
		if d2 < 0 {
			d2 = 0
		}
		c.Offer(i, d2)
	}
	res := c.Results()
	eu := knn.Euclidean{}
	if knn.NormCacheSeparated(res, k, v.d, qn+maxNorm) {
		res = res[:min(k, len(res))]
		for i := range res {
			li := res[i].Index
			res[i].Dist = eu.Distance(v.rows[li*v.d:(li+1)*v.d], query)
		}
	} else {
		c.Reset(k)
		cur = sortedCursor(dead)
		for i := 0; i < n; i++ {
			if len(cur) > 0 && cur.has(v.key(i)) {
				continue
			}
			c.Offer(i, eu.Distance(v.rows[i*v.d:(i+1)*v.d], query))
		}
		res = c.Results()
	}
	for i := range res {
		res[i].Index = v.key(res[i].Index)
	}
	knn.SortNeighbors(res)
	return res
}

// sortedCursor is the unvisited tail of an ascending list probed with
// ascending keys — one side of a merge walk, O(1) amortized per probe.
type sortedCursor []int

// has drops every entry below key and reports whether key is on the list.
//
//drlint:hotpath
func (c *sortedCursor) has(key int) bool {
	s := *c
	for len(s) > 0 && s[0] < key {
		s = s[1:]
	}
	*c = s
	return len(s) > 0 && s[0] == key
}

// insertSorted returns a copy of the ascending list s with x added, or
// (s, false) when s already holds x. s itself is never written: readers may
// still be walking it.
func insertSorted(s []int, x int) ([]int, bool) {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s, false
	}
	out := make([]int, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out, true
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
	var fresh bool
	if pos := snapPosOf(snap, id); pos >= 0 {
		dead := &e.mut.deadPos[shardIndexOf(snap, pos)]
		if *dead, fresh = insertSorted(*dead, pos); fresh {
			e.mut.snapDead++
		}
	} else if deltaHas(&e.mut, id) {
		if e.mut.deadIDs, fresh = insertSorted(e.mut.deadIDs, id); fresh {
			e.mut.live--
		}
	} else {
		e.mut.mu.Unlock()
		return fmt.Errorf("%w: id %d is not in the served set", ErrUnknownID, id)
	}
	e.mut.mu.Unlock()
	if !fresh {
		return fmt.Errorf("%w: id %d already deleted", ErrUnknownID, id)
	}

	e.counters.deletes.Add(1)
	e.maybeCompact()
	return nil
}

// deltaHas reports whether id names a live-or-dead delta row. Caller holds
// mut.mu.
func deltaHas(m *mutState, id int) bool {
	if id < 0 || id >= m.nextID || len(m.bufs) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(m.bufs[id%len(m.bufs)].ids, id)
	return ok
}

// maybeCompact schedules a background compaction when pending mutation
// state crosses Config.CompactAt or the write path is saturated. At most one
// compactor runs at a time; redundant triggers are coalesced.
func (e *Engine) maybeCompact() {
	if e.cfg.CompactAt < 0 {
		return
	}
	e.mut.mu.RLock()
	pending := e.mut.live + e.mut.snapDead + len(e.mut.deadIDs)
	saturated := e.mut.live >= e.cfg.MaxDelta
	e.mut.mu.RUnlock()
	if pending == 0 {
		return
	}
	if pending < e.cfg.CompactAt && !saturated {
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
// done. With nothing pending the live epoch is returned unchanged. Queries
// and mutations keep flowing throughout: the build runs off-lock against a
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
	if e.mut.live == 0 && e.mut.snapDead == 0 && len(e.mut.deadIDs) == 0 {
		epoch := snap.epoch
		e.mut.mu.RUnlock()
		return epoch
	}
	views := slices.Clone(e.mut.bufs) // each view is its buffer's prefix up to the capture cut
	// Shard lists concatenate to one ascending list of positions.
	frozenDeadPos := slices.Concat(e.mut.deadPos...)
	frozenDeadIDs := e.mut.deadIDs
	e.mut.mu.RUnlock()

	// ---- build: materialize survivors in ascending ID order ----
	// Snapshot IDs are ascending and every delta ID exceeds every snapshot
	// ID (nextID is monotone), so surviving snapshot rows followed by
	// ID-sorted surviving delta rows is the globally sorted order. That
	// order is a function of the mutation history alone — not of when
	// compactions ran — which is what makes compaction deterministic.
	var refs []deltaRef
	for bi := range views {
		v := &views[bi]
		dead := sortedCursor(frozenDeadIDs)
		for j, id := range v.ids {
			if !dead.has(id) {
				refs = append(refs, deltaRef{id: id, buf: bi, idx: j})
			}
		}
	}
	slices.SortFunc(refs, func(a, b deltaRef) int { return cmp.Compare(a.id, b.id) })
	total := snap.n - len(frozenDeadPos) + len(refs)
	if total == 0 {
		// Everything captured is deleted: an empty snapshot cannot be
		// built (or partitioned), so the tombstones simply stay pending.
		// Queries remain correct — the scans skip every dead row.
		return snap.epoch
	}
	data := linalg.NewDense(total, snap.d)
	ids := make([]int, total)
	r := 0
	dead := sortedCursor(frozenDeadPos)
	for pos := 0; pos < snap.n; pos++ {
		if dead.has(pos) {
			continue
		}
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
	// Tombstones recorded after the capture (current lists minus captured)
	// target rows that still exist: a row the rebuild kept becomes a dead
	// position of the new snapshot, a leftover delta row's ID stays a delta
	// tombstone; captured tombstones were folded away. Both walks ascend and
	// folded delta rows sit above kept snapshot rows, so the lists ascend.
	newDeadPos := make([][]int, pNew)
	newSnapDead := 0
	markDead := func(np int) {
		s := shardIndexOf(next, np)
		newDeadPos[s] = append(newDeadPos[s], np)
		newSnapDead++
	}
	captured := sortedCursor(frozenDeadPos)
	for _, list := range e.mut.deadPos {
		for _, pos := range list {
			if !captured.has(pos) {
				markDead(snapPosOf(next, snapIDOf(snap, pos)))
			}
		}
	}
	var newDeadIDs []int
	captured = frozenDeadIDs
	for _, id := range e.mut.deadIDs {
		if captured.has(id) {
			continue
		}
		if np := snapPosOf(next, id); np >= 0 {
			markDead(np)
		} else {
			newDeadIDs = append(newDeadIDs, id)
		}
	}
	e.mut.bufs = newBufs
	e.mut.deadPos = newDeadPos
	e.mut.deadIDs = newDeadIDs
	e.mut.snapDead = newSnapDead
	e.mut.live = len(leftovers) - len(newDeadIDs)
	// nextID is untouched: IDs keep ascending across generations.
	e.snap.Store(next)
	e.mut.mu.Unlock()

	e.counters.compactions.Add(1)
	return next.epoch
}
