// Package serve is the concurrent query-serving layer of the similarity
// pipeline: a sharded engine that fronts the exact batch-distance path
// (knn.SearchSetBatch's norm-cache kernels) and the quantized store's
// budgeted two-phase search behind one admission-controlled API.
//
// The design follows the operational setting of Thomasian's clustered /
// reduced-index serving work (PAPERS.md): the dataset is partitioned into P
// contiguous shards, each carrying its own cached squared row norms. A
// query fans out over the shards on a fixed worker pool; per-shard top-k
// lists are merged with the canonical (distance, index) comparator, so the
// exact path is bit-identical to a single-threaded knn.SearchSetBatch over
// the unsharded data.
//
// Shards search through a one-method backend interface with two
// implementations: the in-memory dense backend above, which answers every
// request exactly, and a quantized mmap-backed store backend
// (internal/store, NewFromStore) whose exact path runs the store's
// two-phase search with a full rescore budget — preserving the bit-identity
// contract — and whose approximate path caps phase-2 rescoring at
// Config.Rescore candidates per shard. That budget is the engine's one
// approximate mechanism: a dense snapshot has no cheaper path, so it serves
// ModeApprox and a degraded ModeAuto exactly and reports Approx == false.
// Every backend skips tombstoned rows inside its own scan (mutate.go), so
// the budget counts live candidates however many rows are dead.
//
// Three serving concerns the single-request CLIs never had to own live
// here:
//
//   - Admission control. Requests pass through a bounded queue; a full
//     queue rejects immediately with ErrOverloaded, a request whose
//     context deadline expires before completion returns ErrDeadline, and
//     when queue depth crosses a configurable watermark, ModeAuto requests
//     on a store-backed snapshot degrade from the full to the capped
//     rescore budget instead of queueing further behind work they cannot
//     beat.
//
//   - Index lifecycle. The live snapshot (shards, norms) hangs off an
//     atomic.Pointer; the compactor (mutate.go) builds a replacement off to
//     the side and installs it with one pointer store — the only writer
//     after construction — so folding mutations in never blocks in-flight
//     queries. Serving different data means building a new Engine.
//
//   - Observability. Every request outcome is counted (served, rejected,
//     degraded, deadline-expired), per-shard candidate work is tracked, and
//     latency is recorded in one cumulative fixed-bucket log-scale
//     histogram (internal/stats) from which Stats reports p50/p99.
package serve

import (
	"errors"
	"time"

	"repro/internal/knn"
)

// Typed rejections. Callers branch on these with errors.Is: an overloaded
// engine should be retried after backoff (or the request re-issued in
// ModeApprox), a deadline rejection should be surfaced to the caller, and a
// closed engine is a lifecycle bug.
var (
	// ErrOverloaded reports that the bounded request queue was full at
	// admission time. The request was not enqueued and did no work.
	ErrOverloaded = errors.New("serve: engine overloaded, request queue full")
	// ErrDeadline reports that the request's context expired before a
	// result could be returned — at admission, while queued, or while the
	// caller waited for the merge.
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrClosed reports that the engine has been Closed.
	ErrClosed = errors.New("serve: engine closed")
	// ErrDims reports a query or insert whose dimensionality does not match
	// the served data.
	ErrDims = errors.New("serve: query dimensionality does not match live index")
	// ErrUnknownID reports a Delete whose ID is not in the served set:
	// never issued, already deleted, or deleted and since compacted away.
	ErrUnknownID = errors.New("serve: id is not in the served set")
)

// Mode selects the search path of a request.
type Mode int

const (
	// ModeAuto serves exactly while the queue is shallow and degrades to
	// the approximate path when queue depth crosses the watermark.
	ModeAuto Mode = iota
	// ModeExact always runs the exact sharded scan.
	ModeExact
	// ModeApprox always runs the sharded approximate path: the quantized
	// scan with a capped exact-rescore budget (Config.Rescore) on store
	// shards. Dense shards have none and answer exactly (Result.Approx is
	// false), as a store-backed engine does after its first compaction.
	ModeApprox
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	default:
		return "Mode(?)"
	}
}

// Config parameterizes New. Zero values select sensible defaults, so
// Config{} is a working single-node configuration.
type Config struct {
	// Shards is P, the number of contiguous data partitions (0 selects
	// GOMAXPROCS, clamped so every shard holds at least one row).
	Shards int
	// Workers is the number of request workers draining the admission
	// queue — the engine's request-level concurrency (0 selects
	// 2·GOMAXPROCS).
	Workers int
	// ShardWorkers sizes the pool that executes per-shard scans (0 selects
	// GOMAXPROCS).
	ShardWorkers int
	// QueueDepth bounds the admission queue (0 selects 256). A full queue
	// rejects with ErrOverloaded.
	QueueDepth int
	// DegradeWatermark is the queue-depth fraction in (0, 1] beyond which
	// ModeAuto requests fall back to the approximate path (0 selects 0.75;
	// 1 disables degradation — the queue rejects before it ever degrades).
	// Without an approximate path (dense snapshots) nothing degrades.
	DegradeWatermark float64
	// Rescore bounds the exact-refinement budget of the approximate path
	// on store-backed shards (NewFromStore): each shard's quantized scan
	// admits at most Rescore live candidates for float64 rescoring (the scan
	// skips tombstoned rows, so they never count). 0 selects 32·k at query
	// time. Ignored by dense-backed engines, which have no approximate path.
	Rescore int
	// ScanWorkers is the intra-query parallelism of store-backed shards:
	// each shard's quantized scan splits its row range across up to
	// ScanWorkers goroutines (see store.SearchLive). Results are
	// bit-identical at any worker count. 0 selects 1 — shards already
	// spread concurrent queries across cores, so intra-query splitting
	// only pays when queries are scarce relative to processors (few large
	// shards, low request concurrency). Ignored by dense-backed engines.
	ScanWorkers int
	// MaxDelta bounds the live (inserted, not yet compacted or deleted)
	// delta rows; Insert rejects with ErrOverloaded beyond it — write
	// admission control mirroring the query queue (0 selects 8192).
	MaxDelta int
	// CompactAt schedules a background compaction once pending mutation
	// state (live delta rows plus tombstones) reaches this size (0 selects
	// 1024; negative disables automatic compaction, leaving Compact to the
	// caller).
	CompactAt int
}

// withDefaults resolves zero fields against the data size n and the number
// of processors procs.
func (c Config) withDefaults(n, procs int) Config {
	if c.Shards <= 0 {
		c.Shards = procs
	}
	if c.Shards > n {
		c.Shards = n
	}
	if c.Workers <= 0 {
		c.Workers = 2 * procs
	}
	if c.ShardWorkers <= 0 {
		c.ShardWorkers = procs
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DegradeWatermark <= 0 {
		c.DegradeWatermark = 0.75
	}
	if c.DegradeWatermark > 1 {
		c.DegradeWatermark = 1
	}
	if c.ScanWorkers <= 0 {
		c.ScanWorkers = 1
	}
	if c.MaxDelta <= 0 {
		c.MaxDelta = 8192
	}
	if c.CompactAt == 0 {
		c.CompactAt = 1024
	}
	return c
}

// Result is one served query.
type Result struct {
	// Neighbors holds up to k results in the canonical (distance, index)
	// order. Index is the row's stable ID: its position in the matrix or
	// store the engine was built over, the value Insert returned for a
	// later row. IDs equal positions in the served snapshot only until the
	// first compaction that drops a row.
	Neighbors []knn.Neighbor
	// Approx reports whether an approximate path served the request: false
	// for every answer of a dense snapshot, whatever Mode asked.
	Approx bool
	// Degraded reports whether admission control downgraded a ModeAuto
	// request to the approximate path (implies Approx).
	Degraded bool
	// Epoch identifies the snapshot that served the query; it increases by
	// one per compaction, so tests can assert which index a response saw.
	Epoch uint64
	// Wait is the time the request spent queued before a worker picked it
	// up; Total is admission-to-merge latency.
	Wait, Total time.Duration
	// Candidates counts the points the approximate path refined with exact
	// distances, summed over shards (zero on the exact path, which scans
	// everything).
	Candidates int
}
