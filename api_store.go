package repro

import (
	"repro/internal/dataset/synthetic"
	"repro/internal/serve"
	"repro/internal/store"
)

// This file exposes the quantized vector store: a block-major, mmap-backed
// on-disk format of per-dimension int8 codes in a caller-chosen storage
// order, with two-phase search (SIMD code scan with an early-abandon
// prefix, exact float64 rescore). The benchmark's store_approx workload
// builds and serves one.

// VectorStore is an opened quantized store. Search runs the two-phase scan;
// a rescore budget of Len() makes results bit-identical to SearchSetBatch.
type VectorStore = store.Store

// StoreConfig parameterizes store construction: a storage-order
// permutation (StoreScales.VarianceOrder, so the early-abandon prefix reads
// the dimensions that carry the distance mass), externally computed scales,
// and block granularity.
type StoreConfig = store.BuildConfig

// StorePrecision is the store's code width tag; StoreInt8 is its only value.
type StorePrecision = store.Precision

// StoreInt8 is one byte per dimension.
const StoreInt8 = store.Int8

// StoreWriter streams rows into a store file with O(d) memory.
type StoreWriter = store.Writer

// StoreScales accumulates per-dimension min/max over streamed rows — the
// first pass of a two-pass streaming build.
type StoreScales = store.ScaleAccumulator

// WriteStore quantizes data into a store file at path.
func WriteStore(path string, data *Matrix, cfg StoreConfig) error {
	return store.Write(path, data, cfg)
}

// OpenStore maps a store file for searching.
func OpenStore(path string) (*VectorStore, error) { return store.Open(path) }

// CreateStore opens a streaming writer for n rows of d dimensions;
// cfg.Mins/cfg.Steps must carry precomputed scales (see NewStoreScales).
func CreateStore(path string, n, d int, cfg StoreConfig) (*StoreWriter, error) {
	return store.Create(path, n, d, cfg)
}

// NewStoreScales starts a scale accumulation over d-dimensional rows.
func NewStoreScales(d int) *StoreScales { return store.NewScaleAccumulator(d) }

// NewEngineFromStore builds a sharded serving engine whose shards scan a
// quantized store: exact mode is bit-identical to SearchSetBatch (full
// rescore), approximate mode caps per-shard rescoring at cfg.Rescore — the
// serving layer's one approximate path, which lasts until the engine's
// first compaction folds the store's exact rows into an in-memory snapshot.
func NewEngineFromStore(st *VectorStore, cfg ServeConfig) (*Engine, error) {
	return serve.NewFromStore(st, cfg)
}

// RowStream generates a synthetic data set row by row with O(d) memory; its
// rows are bit-identical to Generate on the same config, and Reset replays
// them, enabling two-pass streaming store builds at million-point scale.
type RowStream = synthetic.RowStream

// NewRowStream validates the config and prepares the stream.
func NewRowStream(c LatentFactorConfig) (*RowStream, error) { return synthetic.NewRowStream(c) }
