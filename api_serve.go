package repro

import (
	"repro/internal/dataset/synthetic"
	"repro/internal/serve"
)

// This file exposes the concurrent serving layer: a sharded query engine
// over the exact batch-distance path (and, store-backed, the quantized
// store's budgeted rescore — see api_store.go), with admission control and
// a live mutation path (Engine.Insert/Delete/Compact with delta buffers,
// tombstones and a background compactor whose install is the one atomic
// replacement of the served snapshot). `go run ./benchmark` measures it
// (dense_exact, store_approx, mutate_mix).

// Engine is a sharded, concurrent k-NN query engine. Data is partitioned
// into shards, each with its own cached norms; queries fan out over a fixed
// worker pool and per-shard top-k results merge under the canonical
// (distance, index) order, so exact answers are bit-identical to
// SearchSetBatch.
type Engine = serve.Engine

// ServeConfig configures NewEngine (shard count, worker pools, admission
// queue depth, degradation watermark, the store backend's rescore budget
// and the mutation path's limits).
type ServeConfig = serve.Config

// ServeResult is one answered query: neighbors, the path that served it,
// the snapshot epoch, and queue/total timings.
type ServeResult = serve.Result

// ServeMode selects the search path per request.
type ServeMode = serve.Mode

// Serve modes: ModeAuto lets admission control degrade exact to approximate
// under load; ModeExact and ModeApprox pin the path. Only a store-backed
// engine has an approximate path; an engine over a matrix answers every
// mode exactly and ServeResult.Approx says so.
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

// DriftConfig enables streaming-PCA drift tracking of an engine's mutation
// stream (ServeConfig.Drift): when the frozen basis's captured energy
// decays below the threshold, the engine forces a re-projection compaction
// and refits the basis.
type DriftConfig = serve.DriftConfig

// MuskLikeConfig is the generator configuration behind MuskLike with N left
// adjustable: set N to carve a database-scale workload (the serving
// benchmark uses n = 6598 data rows at d = 166 plus held-out queries).
func MuskLikeConfig(seed int64) LatentFactorConfig { return synthetic.MuskLikeConfig(seed) }
