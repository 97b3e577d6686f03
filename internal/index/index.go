// Package index provides the partition-based similarity indexes whose
// pruning behavior motivates the paper: a bucketed k-d tree, a
// VA-file (vector-approximation) scan, and an STR bulk-loaded R-tree.
// All answer exact Euclidean k-NN queries and report how much work the
// query needed, so experiments can show pruning collapsing as
// dimensionality grows (§1.1) and recovering after aggressive reduction.
package index

import (
	"repro/internal/knn"
)

// Stats reports the work done by one k-NN query.
type Stats struct {
	// NodesVisited counts index nodes (tree nodes or approximation cells
	// batches) examined.
	NodesVisited int
	// PointsScanned counts full data vectors whose exact distance was
	// computed.
	PointsScanned int
	// BucketsProbed counts hash buckets looked up across all tables.
	// Zero for exact indexes; for LSH it is tables x probes.
	BucketsProbed int
	// CandidateSize counts the unique candidates an approximate query
	// refined with exact distances. Zero for exact indexes.
	CandidateSize int
}

// Add accumulates another query's stats.
func (s *Stats) Add(o Stats) {
	s.NodesVisited += o.NodesVisited
	s.PointsScanned += o.PointsScanned
	s.BucketsProbed += o.BucketsProbed
	s.CandidateSize += o.CandidateSize
}

// Index is an exact Euclidean k-nearest-neighbor structure over a fixed
// point set.
type Index interface {
	// KNN returns the k nearest neighbors of query by Euclidean distance,
	// sorted ascending, along with the work performed. If the structure
	// holds fewer than k points, all points are returned.
	KNN(query []float64, k int) ([]knn.Neighbor, Stats)
	// Dims returns the dimensionality of the indexed points.
	Dims() int
}

// ScanFraction is the fraction of stored vectors a query had to examine —
// the paper's measure of whether "the optimistic bounds used by most index
// structures are ... sharp enough for any kind of effective pruning".
func ScanFraction(s Stats, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(s.PointsScanned) / float64(total)
}
