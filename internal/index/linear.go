package index

import (
	"fmt"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// LinearScan is the no-index baseline: every query computes the exact
// distance to every point. Its Stats always report a full scan, which is
// the yardstick the partition indexes are judged against.
type LinearScan struct {
	data *linalg.Dense
}

// NewLinearScan wraps a point matrix (retained, not copied).
func NewLinearScan(data *linalg.Dense) *LinearScan { return &LinearScan{data: data} }

// Dims implements Index.
func (l *LinearScan) Dims() int { return l.data.Cols() }

// KNN implements Index.
func (l *LinearScan) KNN(query []float64, k int) ([]knn.Neighbor, Stats) {
	if len(query) != l.Dims() {
		panic(fmt.Sprintf("index: query has %d dims, data has %d", len(query), l.Dims()))
	}
	res := knn.Search(l.data, query, k, knn.Euclidean{}, -1)
	return res, Stats{NodesVisited: 1, PointsScanned: l.data.Rows()}
}
