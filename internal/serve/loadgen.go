package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// LoadConfig parameterizes RunLoad, the closed-loop load generator the
// raced mutation tests drive an engine with.
type LoadConfig struct {
	// Ops is the total number of operations to issue, reads plus writes
	// (0 selects 10000).
	Ops int
	// Concurrency is the number of closed-loop client goroutines
	// (0 selects 32).
	Concurrency int
	// WriteFraction is the probability in [0, 1] that an operation is a
	// write (split roughly evenly between inserts and deletes); the rest
	// are k-NN reads. 0 is a read-only run.
	WriteFraction float64
	// Deadline is the per-operation context deadline (0 = none).
	Deadline time.Duration
	// K is the neighbor count per read (0 selects 10).
	K int
	// Mode selects the search path of ordinary reads (ModeAuto exercises
	// degradation). Read-your-writes verification reads always run
	// ModeExact, since only the exact path carries the bit-identity
	// contract.
	Mode Mode
	// Seed roots the per-client RNG streams that drive the op mix, the
	// insert payloads, and the delete targets.
	Seed int64
}

// withDefaults fills zero fields.
func (c LoadConfig) withDefaults() LoadConfig {
	if c.Ops <= 0 {
		c.Ops = 10000
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 32
	}
	if c.K <= 0 {
		c.K = 10
	}
	return c
}

// LoadReport is the outcome accounting of one RunLoad. Every issued
// operation lands in exactly one of Reads / Inserts / Deletes / Overloaded
// / DeadlineExceeded / UnknownID / OtherErrors. The four violation
// counters — Lost, Duplicated, DeletedIDHits, StaleAcks — are what "no
// operation is dropped or answered twice, no acknowledged write is ever
// lost and no deleted row ever resurrects" means operationally, and all
// four must be zero.
type LoadReport struct {
	Ops           int
	Concurrency   int
	WriteFraction float64
	Mode          string

	// Reads counts served read queries, split by the path that served them
	// (Reads = Exact + Approx; Degraded ⊆ Approx counts ModeAuto reads that
	// admission control downgraded). Inserts and Deletes count
	// acknowledged mutations.
	Reads    int
	Exact    int
	Approx   int
	Degraded int
	Inserts  int
	Deletes  int

	// Typed rejections. UnknownID must be zero: clients only ever delete
	// IDs they own and have not yet deleted, so an ErrUnknownID is an
	// engine-side accounting bug, not load.
	Overloaded       int
	DeadlineExceeded int
	UnknownID        int
	OtherErrors      int

	// Lost counts op slots that finished with no recorded outcome;
	// Duplicated counts slots with more than one.
	Lost       int
	Duplicated int
	// DeletedIDHits counts read results containing an ID whose deletion the
	// same client had already been acknowledged — a resurrection.
	DeletedIDHits int
	// StaleAcks counts acknowledged inserts that a later ModeExact read by
	// the same client failed to observe — a broken read-your-writes fence.
	StaleAcks int

	// Compactions and Epoch sample the engine after the run: on a run with
	// writes, at least one mid-run compaction is what makes it exercise the
	// full capture/build/install cycle rather than pure delta scanning.
	Compactions uint64
	Epoch       uint64
	// FinalRows is the surviving row count (base − deletes + inserts).
	FinalRows int

	Elapsed    time.Duration
	Throughput float64 // completed operations per second
	// MeanWait is the average queued time of served reads.
	MeanWait time.Duration
}

// LiveSet is the ground-truth state an engine should be serving: the
// stable IDs alive (ascending) and their vectors, row-aligned. Nil IDs
// mean the identity mapping — row i of Rows has ID i, the state of a
// freshly built, never-mutated engine. It is what a from-scratch rebuild
// would serve, so VerifyMutated can hold the engine to bit-identity
// against it.
type LiveSet struct {
	IDs  []int
	Rows *linalg.Dense
}

// Outcome codes of one operation slot.
const (
	outNone int8 = iota
	outExact
	outApprox
	outDegraded
	outInsert
	outDelete
	outOverloaded
	outDeadline
	outUnknown
	outError
	outCount
)

// loadClient is one closed-loop client's private state. Clients partition
// both the op slots (client w owns ops w, w+C, ...) and the deletable rows
// (client w owns base rows w, w+C, ... plus every row it inserted), so all
// bookkeeping is coordination-free and every violation counter is exact.
type loadClient struct {
	rng      *rand.Rand
	alive    []int             // live owned IDs, deletion candidates
	inserted map[int][]float64 // acked inserts (survivors contribute to LiveSet)
	deleted  map[int]struct{}  // acked deletes (must never reappear in reads)
	checkID  int               // pending read-your-writes target, -1 when none
	checkVec []float64
	hits     int           // deleted-ID resurrections observed
	stale    int           // acked inserts a later exact read missed
	waitSum  time.Duration // queued time over served reads
}

// RunLoad drives the engine with cfg.Concurrency closed-loop clients
// issuing cfg.Ops operations total: k-NN reads cycling deterministically
// through the rows of queries, interleaved — with probability
// cfg.WriteFraction — with inserts (noised copies of base rows) and deletes
// of rows the client owns. Operation i is owned by client i%Concurrency,
// so outcome slots are written without coordination and double-completion
// is structurally detectable. Per-operation contexts derive from ctx, so
// the caller's cancellation propagates into every in-flight operation.
//
// A run with writes needs base, and the engine must be freshly built over
// it (stable IDs 0..base.Rows()-1, no prior mutations), so the returned
// LiveSet is exact ground truth. A read-only run (WriteFraction 0) touches
// base only to return it as the identity LiveSet; it may be nil.
//
// Three invariants are checked inline and reported, not assumed: every op
// slot completes exactly once (Lost/Duplicated), an acknowledged delete is
// invisible to every later read by that client (DeletedIDHits), and an
// acknowledged insert is visible to the client's next successful exact read
// (StaleAcks).
func RunLoad(ctx context.Context, e *Engine, base, queries *linalg.Dense, cfg LoadConfig) (LoadReport, LiveSet, error) {
	c := cfg.withDefaults()
	nq := queries.Rows()
	if queries.Cols() != e.Dims() {
		return LoadReport{}, LiveSet{}, fmt.Errorf("serve: load queries have %d dims, engine serves %d", queries.Cols(), e.Dims())
	}
	if !(c.WriteFraction >= 0 && c.WriteFraction <= 1) {
		return LoadReport{}, LiveSet{}, fmt.Errorf("serve: write fraction %v outside [0, 1]", c.WriteFraction)
	}
	baseN := 0
	if c.WriteFraction > 0 {
		if base == nil || base.Cols() != e.Dims() {
			return LoadReport{}, LiveSet{}, fmt.Errorf("serve: a load with writes needs the %d-dim base rows the engine was built over", e.Dims())
		}
		baseN = base.Rows()
	}

	outcomes := make([]int8, c.Ops)
	done := make([]int32, c.Ops) // per-slot completion count: must end at 1

	clients := make([]*loadClient, c.Concurrency)
	for w := range clients {
		cl := &loadClient{
			rng:      rand.New(rand.NewSource(c.Seed + int64(w)*0x9E3779B9)),
			inserted: make(map[int][]float64),
			deleted:  make(map[int]struct{}),
			checkID:  -1,
		}
		for id := w; id < baseN; id += c.Concurrency {
			cl.alive = append(cl.alive, id)
		}
		clients[w] = cl
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(c.Concurrency)
	for w := 0; w < c.Concurrency; w++ {
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			for i := w; i < c.Ops; i += c.Concurrency {
				rctx := ctx
				cancel := func() {}
				if c.Deadline > 0 {
					rctx, cancel = context.WithTimeout(ctx, c.Deadline)
				}
				outcomes[i] = cl.step(rctx, e, base, queries.RawRow(i%nq), c)
				cancel()
				done[i]++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var n [outCount]int
	rep := LoadReport{
		Ops:           c.Ops,
		Concurrency:   c.Concurrency,
		WriteFraction: c.WriteFraction,
		Mode:          c.Mode.String(),
		Elapsed:       elapsed,
	}
	for i, o := range outcomes {
		n[o]++
		if done[i] > 1 {
			rep.Duplicated++
		}
	}
	rep.Exact = n[outExact]
	rep.Approx = n[outApprox] + n[outDegraded]
	rep.Degraded = n[outDegraded]
	rep.Reads = rep.Exact + rep.Approx
	rep.Inserts = n[outInsert]
	rep.Deletes = n[outDelete]
	rep.Overloaded = n[outOverloaded]
	rep.DeadlineExceeded = n[outDeadline]
	rep.UnknownID = n[outUnknown]
	rep.OtherErrors = n[outError]
	rep.Lost = n[outNone]
	var waitSum time.Duration
	for _, cl := range clients {
		rep.DeletedIDHits += cl.hits
		rep.StaleAcks += cl.stale
		waitSum += cl.waitSum
	}
	if rep.Reads > 0 {
		rep.MeanWait = waitSum / time.Duration(rep.Reads)
	}
	rep.Throughput = float64(rep.Reads+rep.Inserts+rep.Deletes) / elapsed.Seconds()

	live := LiveSet{Rows: base}
	if c.WriteFraction > 0 {
		live = assembleLiveSet(base, clients)
	}
	if live.Rows != nil {
		rep.FinalRows = live.Rows.Rows()
	}
	st := e.Stats()
	rep.Compactions = st.Compactions
	rep.Epoch = st.Epoch
	return rep, live, nil
}

// step issues one operation and returns its outcome code. query is the
// row an ordinary read would ask about.
func (cl *loadClient) step(ctx context.Context, e *Engine, base *linalg.Dense, query []float64, c LoadConfig) int8 {
	classify := func(err error) int8 {
		switch {
		case errors.Is(err, ErrOverloaded):
			return outOverloaded
		case errors.Is(err, ErrDeadline):
			return outDeadline
		case errors.Is(err, ErrUnknownID):
			return outUnknown
		default:
			return outError
		}
	}

	if c.WriteFraction > 0 && cl.rng.Float64() < c.WriteFraction {
		// Write op: even split between insert and delete, falling back to
		// insert when the client has nothing left to delete.
		if cl.rng.Intn(2) == 0 && len(cl.alive) > 0 {
			j := cl.rng.Intn(len(cl.alive))
			id := cl.alive[j]
			if err := e.Delete(ctx, id); err != nil {
				return classify(err)
			}
			cl.alive[j] = cl.alive[len(cl.alive)-1]
			cl.alive = cl.alive[:len(cl.alive)-1]
			cl.deleted[id] = struct{}{}
			delete(cl.inserted, id)
			if id == cl.checkID {
				// The pending read-your-writes target was just deleted by
				// its own writer; absence is now the correct outcome.
				cl.checkID, cl.checkVec = -1, nil
			}
			return outDelete
		}
		vec := make([]float64, base.Cols())
		copy(vec, base.RawRow(cl.rng.Intn(base.Rows())))
		for j := range vec {
			vec[j] += cl.rng.NormFloat64() * 0.01
		}
		id, err := e.Insert(ctx, vec)
		if err != nil {
			return classify(err)
		}
		cl.alive = append(cl.alive, id)
		cl.inserted[id] = vec
		cl.checkID, cl.checkVec = id, vec
		return outInsert
	}

	// Read op. A pending read-your-writes check replaces the ordinary read:
	// query the inserted vector itself on the exact path and require its ID
	// in the results (distance zero is unbeatable under the canonical
	// order, so absence means the ack was not yet visible — a staleness
	// violation). The check survives failed reads and retries on the next
	// read op.
	mode := c.Mode
	check := cl.checkID >= 0
	if check {
		query, mode = cl.checkVec, ModeExact
	}
	res, err := e.SearchMode(ctx, query, c.K, mode)
	if err != nil {
		return classify(err)
	}
	found := false
	for _, nb := range res.Neighbors {
		if nb.Index == cl.checkID {
			found = true
		}
		if _, dead := cl.deleted[nb.Index]; dead {
			cl.hits++
		}
	}
	if check {
		if !found {
			cl.stale++
		}
		cl.checkID, cl.checkVec = -1, nil
	}
	cl.waitSum += res.Wait
	switch {
	case res.Degraded:
		return outDegraded
	case res.Approx:
		return outApprox
	}
	return outExact
}

// assembleLiveSet merges the clients' private bookkeeping (their owned
// sets are disjoint) into the ascending-ID ground truth: base rows no
// client deleted, then the surviving inserts, whose IDs all exceed the
// base range.
func assembleLiveSet(base *linalg.Dense, clients []*loadClient) LiveSet {
	baseN, d := base.Dims()
	dead := make(map[int]struct{})
	inserted := make(map[int][]float64)
	for _, cl := range clients {
		maps.Copy(dead, cl.deleted)
		maps.Copy(inserted, cl.inserted)
	}
	ids := make([]int, 0, baseN+len(inserted))
	for id := 0; id < baseN; id++ {
		if _, gone := dead[id]; !gone {
			ids = append(ids, id)
		}
	}
	for id := range inserted {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return LiveSet{}
	}
	slices.Sort(ids)
	rows := linalg.NewDense(len(ids), d)
	for r, id := range ids {
		if id < baseN {
			copy(rows.RawRow(r), base.RawRow(id))
		} else {
			copy(rows.RawRow(r), inserted[id])
		}
	}
	return LiveSet{IDs: ids, Rows: rows}
}

// VerifyMutated holds the engine to the bit-identity contract against the
// ground truth: for up to sample rows of queries (0 = all), the engine's
// ModeExact top-k must equal knn.SearchSetBatch over live.Rows — the
// from-scratch rebuild over surviving rows — with results mapped through
// live.IDs, equal indices, and distance bits compared with
// math.Float64bits. With the identity LiveSet of a never-mutated engine it
// is the plain exact-path gate against SearchSetBatch over the data. Call
// it only while no mutation traffic is running.
func VerifyMutated(ctx context.Context, e *Engine, live LiveSet, queries *linalg.Dense, k, sample int) error {
	if live.Rows == nil {
		return fmt.Errorf("serve: VerifyMutated needs a non-empty live set")
	}
	if n := live.Rows.Rows(); k > n {
		k = n
	}
	nq := queries.Rows()
	if sample <= 0 || sample > nq {
		sample = nq
	}
	qsub := queries.RowSlice(0, sample)
	want := knn.SearchSetBatch(live.Rows, qsub, k, knn.Euclidean{}, false)
	for q := 0; q < sample; q++ {
		res, err := e.SearchMode(ctx, qsub.RawRow(q), k, ModeExact)
		if err != nil {
			return fmt.Errorf("serve: VerifyMutated query %d: %w", q, err)
		}
		if len(res.Neighbors) != len(want[q]) {
			return fmt.Errorf("serve: VerifyMutated query %d: engine returned %d neighbors, rebuild %d",
				q, len(res.Neighbors), len(want[q]))
		}
		for j, nb := range res.Neighbors {
			wantID := want[q][j].Index
			if live.IDs != nil {
				wantID = live.IDs[wantID]
			}
			if nb.Index != wantID {
				return fmt.Errorf("serve: VerifyMutated query %d rank %d: engine id %d, rebuild id %d",
					q, j, nb.Index, wantID)
			}
			if math.Float64bits(nb.Dist) != math.Float64bits(want[q][j].Dist) {
				return fmt.Errorf("serve: VerifyMutated query %d rank %d (id %d): engine dist %v (bits %#x), rebuild %v (bits %#x)",
					q, j, nb.Index, nb.Dist, math.Float64bits(nb.Dist), want[q][j].Dist, math.Float64bits(want[q][j].Dist))
			}
		}
	}
	return nil
}
