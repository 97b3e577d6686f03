package repro

import (
	"context"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/serve"
)

// This file exposes the concurrent serving layer: a sharded query engine
// over the exact batch-distance path and the approximate LSH path, with
// admission control, atomic snapshot swaps, a live mutation path
// (Engine.Insert/Delete/Compact with delta buffers, tombstones and a
// background compactor) and one closed-loop load generator whose write
// fraction selects the workload, from pure reads to a mixed read/write
// stream. `drtool -bench` is the CLI front end.

// Engine is a sharded, concurrent k-NN query engine. Data is partitioned
// into shards, each with its own cached norms and LSH tables; queries fan
// out over a fixed worker pool and per-shard top-k results merge under the
// canonical (distance, index) order, so exact answers are bit-identical to
// SearchSetBatch.
type Engine = serve.Engine

// ServeConfig configures NewEngine (shard count, worker pools, admission
// queue depth, degradation watermark and the per-shard LSH layout).
type ServeConfig = serve.Config

// ServeResult is one answered query: neighbors, the path that served it,
// the snapshot epoch, and queue/total timings.
type ServeResult = serve.Result

// ServeMode selects the search path per request.
type ServeMode = serve.Mode

// Serve modes: ModeAuto lets admission control degrade exact to approximate
// under load; ModeExact and ModeApprox pin the path.
const (
	ModeAuto   = serve.ModeAuto
	ModeExact  = serve.ModeExact
	ModeApprox = serve.ModeApprox
)

// EngineStats is a point-in-time snapshot of an engine's counters,
// including fixed-bucket latency percentiles.
type EngineStats = serve.EngineStats

// Typed serving errors: admission control rejects with ErrOverloaded when
// the request queue is full (or the insert delta backlog is at its cap);
// ErrDeadline wraps context expiry; ErrClosed marks requests after Close;
// ErrDims marks query/engine dimension mismatches; ErrUnknownID marks
// deletes of IDs not in the served set.
var (
	ErrOverloaded = serve.ErrOverloaded
	ErrDeadline   = serve.ErrDeadline
	ErrClosed     = serve.ErrClosed
	ErrDims       = serve.ErrDims
	ErrUnknownID  = serve.ErrUnknownID
)

// NewEngine builds a sharded engine over the rows of data.
func NewEngine(data *Matrix, cfg ServeConfig) (*Engine, error) { return serve.New(data, cfg) }

// ServeSearch answers one exact-or-degraded query through an engine
// (shorthand for SearchMode with ModeAuto).
func ServeSearch(ctx context.Context, e *Engine, query []float64, k int) (ServeResult, error) {
	return e.Search(ctx, query, k)
}

// LoadConfig parameterizes RunLoad: total operations, closed-loop client
// count, write fraction (0 = read-only), optional aggregate rate throttle,
// per-operation deadline, neighbor count, read mode and the RNG seed behind
// the op mix.
type LoadConfig = serve.LoadConfig

// LoadReport is the outcome accounting of one RunLoad. Lost, Duplicated,
// DeletedIDHits and StaleAcks must all be zero on a correct engine. Its
// JSON encoding is the load section of `drtool -bench`'s report.
type LoadReport = serve.LoadReport

// LiveSet is the ground-truth state an engine should be serving: stable
// IDs (ascending; nil = row positions) and their vectors, row-aligned.
type LiveSet = serve.LiveSet

// RunLoad drives an engine with a closed-loop client fleet: k-NN reads
// cycling through the query rows, interleaved at cfg.WriteFraction with
// inserts and deletes over base (optional for a read-only run). It accounts
// for every operation's outcome, checks read-your-writes visibility and
// deleted-ID invisibility inline, and returns the surviving ground truth
// for VerifyMutated. Per-operation deadlines derive from ctx, so cancelling
// it winds down the fleet.
func RunLoad(ctx context.Context, e *Engine, base, queries *linalg.Dense, cfg LoadConfig) (LoadReport, LiveSet, error) {
	return serve.RunLoad(ctx, e, base, queries, cfg)
}

// VerifyMutated holds a quiescent engine to the bit-identity contract
// against a ground truth: exact top-k must equal a from-scratch rebuild
// (SearchSetBatch) over the live rows, bit for bit. LiveSet{Rows: data} is
// the check for a never-mutated engine.
func VerifyMutated(ctx context.Context, e *Engine, live LiveSet, queries *linalg.Dense, k, sample int) error {
	return serve.VerifyMutated(ctx, e, live, queries, k, sample)
}

// DriftConfig enables streaming-PCA drift tracking of an engine's mutation
// stream (ServeConfig.Drift): when the frozen basis's captured energy
// decays below the threshold, the engine forces a re-projection compaction
// and refits the basis.
type DriftConfig = serve.DriftConfig

// MuskLikeConfig is the generator configuration behind MuskLike with N left
// adjustable: set N to carve a database-scale workload (the serving
// benchmark uses n = 6598 data rows at d = 166 plus held-out queries).
func MuskLikeConfig(seed int64) LatentFactorConfig { return synthetic.MuskLikeConfig(seed) }
