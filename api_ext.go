package repro

import (
	"repro/internal/cluster"
	"repro/internal/dataset/synthetic"
	"repro/internal/fractal"
	"repro/internal/index"
	"repro/internal/index/lsh"
	"repro/internal/knn"
	"repro/internal/reduction"
)

// This file exposes the extension features the paper sketches beyond its
// core evaluation: local (projected-clustering) reduction for data with
// high global implicit dimensionality (§3.1) and streaming covariance
// maintenance for dynamic databases (reference [17]).

// SearchSetBatch is SearchSet routed through the blocked batch-distance
// engine: for Euclidean and SquaredEuclidean metrics, squared distances come
// from cached row norms and tiled matrix products instead of per-pair scans,
// and results match SearchSet exactly (other metrics run Search per query
// across GOMAXPROCS workers). Use it for ground-truth workloads — exact
// k-NN of a query set against a large stored set.
func SearchSetBatch(data, queries *Matrix, k int, m Metric, selfExclude bool) [][]Neighbor {
	return knn.SearchSetBatch(data, queries, k, m, selfExclude)
}

// PairwiseSq returns the queries.Rows() x data.Rows() matrix of squared
// Euclidean distances, computed through the same blocked kernels. It
// materializes the full matrix; for k-NN prefer SearchSetBatch, which tiles.
func PairwiseSq(data, queries *Matrix) *Matrix {
	return knn.PairwiseSq(data, queries)
}

// KMeansResult is a k-means clustering of a point matrix.
type KMeansResult = cluster.KMeansResult

// KMeansConfig configures KMeans.
type KMeansConfig = cluster.KMeansConfig

// KMeans clusters the rows of x with k-means++ seeding and Lloyd iteration.
func KMeans(x *Matrix, cfg KMeansConfig) (*KMeansResult, error) { return cluster.KMeans(x, cfg) }

// Silhouette returns the mean silhouette coefficient of a clustering.
func Silhouette(x *Matrix, assign []int, k int) float64 { return cluster.Silhouette(x, assign, k) }

// LocalReduction is a per-cluster dimensionality reduction (the paper's
// §3.1 extension): each k-means cell gets its own PCA and keeps its own
// most meaningful directions.
type LocalReduction = cluster.LocalReduction

// LocalConfig configures FitLocal.
type LocalConfig = cluster.LocalConfig

// FitLocal partitions the data and fits a reduction per cluster.
func FitLocal(x *Matrix, cfg LocalConfig) (*LocalReduction, error) { return cluster.FitLocal(x, cfg) }

// SubspaceMixtureConfig describes a union-of-subspaces data set — the
// high-implicit-dimensionality regime where only local reduction works.
type SubspaceMixtureConfig = synthetic.SubspaceMixtureConfig

// SubspaceMixture generates a union-of-subspaces data set.
func SubspaceMixture(c SubspaceMixtureConfig) (*Dataset, error) { return synthetic.SubspaceMixture(c) }

// CovarianceAccumulator maintains streaming covariance statistics so the
// transform of a dynamic database can be refreshed in O(d²) per update.
type CovarianceAccumulator = reduction.CovarianceAccumulator

// NewCovarianceAccumulator creates an accumulator for d-dimensional points.
func NewCovarianceAccumulator(d int) *CovarianceAccumulator {
	return reduction.NewCovarianceAccumulator(d)
}

// IGrid is the inverted-grid similarity index of the paper's reference [3]:
// an alternative to dimensionality reduction that redefines similarity so
// that only same-range dimensions contribute, preserving nearest-neighbor
// contrast in high dimensionality.
type IGrid = index.IGrid

// BuildIGrid indexes the rows of data with the given equi-depth ranges per
// dimension and Minkowski aggregation order p (2 is the usual choice).
func BuildIGrid(data *Matrix, ranges int, p float64) *IGrid {
	return index.BuildIGrid(data, ranges, p)
}

// BuildIDistance builds the iDistance one-dimensional-mapping index over a
// sorted key array: exact Euclidean k-NN via partition-banded range scans.
// It is most effective in the aggressively reduced space.
func BuildIDistance(data *Matrix, partitions int, seed int64) Index {
	return index.BuildIDistance(data, partitions, seed)
}

// LSHConfig configures BuildLSH: table count, hashes per table, slot width
// (0 = estimated from the data) and the root seed all tables derive from.
type LSHConfig = lsh.Config

// LSHIndex is a multi-probe locality-sensitive hash index (p-stable random
// projections; Lv et al., VLDB 2007): approximate Euclidean k-NN whose
// queries trade recall for work via a probing-depth argument, reporting
// BucketsProbed and CandidateSize in their stats. Its KNNApproxSet answers
// batch workloads on a GOMAXPROCS-sized worker pool.
type LSHIndex = lsh.Index

// BuildLSH hashes the rows of data into cfg.Tables bucket maps, building
// tables concurrently. Results are deterministic for a fixed cfg.Seed.
func BuildLSH(data *Matrix, cfg LSHConfig) *LSHIndex { return lsh.Build(data, cfg) }

// Recall is the fraction of the exact neighbor set an approximate answer
// recovered — the recall@k of an approximate index judged against an exact
// index's ground truth.
func Recall(approx, exact []Neighbor) float64 { return index.Recall(approx, exact) }

// MeanRecall averages Recall over paired query workloads.
func MeanRecall(approx, exact [][]Neighbor) float64 { return index.MeanRecall(approx, exact) }

// ScanFraction is the fraction of stored vectors a query workload had to
// examine, given the accumulated stats and the per-query point count.
func ScanFraction(s IndexStats, total int) float64 { return index.ScanFraction(s, total) }

// FractalEstimate is a correlation-dimension fit.
type FractalEstimate = fractal.Estimate

// FractalOptions configure CorrelationDimension.
type FractalOptions = fractal.Options

// CorrelationDimension estimates the implicit (intrinsic) dimensionality
// D₂ of a point set (the paper's §3 notion, via reference [15]): low D₂
// relative to the ambient dimensionality marks data amenable to aggressive
// reduction; D₂ near ambient marks the irreducible uniform-like regime.
func CorrelationDimension(x *Matrix, opts FractalOptions) (FractalEstimate, error) {
	return fractal.CorrelationDimension(x, opts)
}
