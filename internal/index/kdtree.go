package index

import (
	"fmt"
	"sort"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// KDTree is a bucketed k-d tree over a dense point matrix. Internal nodes
// split on the dimension of largest spread at the median; leaves hold up to
// LeafSize points. Queries are exact branch-and-bound Euclidean k-NN.
type KDTree struct {
	data     *linalg.Dense
	root     *kdNode
	leafSize int
}

type kdNode struct {
	// Leaf fields: indices of points stored here (nil for internal nodes).
	points []int
	// Internal fields.
	dim         int
	split       float64
	left, right *kdNode
}

// DefaultLeafSize is the bucket capacity used when 0 is passed to
// BuildKDTree.
const DefaultLeafSize = 16

// BuildKDTree constructs a k-d tree over the rows of data. leafSize <= 0
// selects DefaultLeafSize. The matrix is retained (not copied); callers must
// not mutate it while the tree is in use.
func BuildKDTree(data *linalg.Dense, leafSize int) *KDTree {
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	n, _ := data.Dims()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t := &KDTree{data: data, leafSize: leafSize}
	t.root = t.build(idx)
	return t
}

func (t *KDTree) build(idx []int) *kdNode {
	if len(idx) <= t.leafSize {
		return &kdNode{points: idx}
	}
	// Pick the dimension with the largest spread over this subset.
	d := t.data.Cols()
	bestDim, bestSpread := 0, -1.0
	for j := 0; j < d; j++ {
		lo := t.data.At(idx[0], j)
		hi := lo
		for _, i := range idx[1:] {
			v := t.data.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestSpread = spread
			bestDim = j
		}
	}
	if bestSpread == 0 {
		// All points in this subset are identical: store as one leaf to
		// guarantee progress.
		return &kdNode{points: idx}
	}
	dim := bestDim
	sort.Slice(idx, func(a, b int) bool { return t.data.At(idx[a], dim) < t.data.At(idx[b], dim) })
	mid := len(idx) / 2
	// Move mid forward past duplicates of the split value so the right
	// subtree is strictly >= split and both sides are non-empty.
	split := t.data.At(idx[mid], dim)
	lo := mid
	for lo > 0 && t.data.At(idx[lo-1], dim) == split {
		lo--
	}
	if lo == 0 {
		hi := mid
		for hi < len(idx) && t.data.At(idx[hi], dim) == split {
			hi++
		}
		mid = hi
		split = t.data.At(idx[mid], dim)
	} else {
		mid = lo
	}
	return &kdNode{
		dim:   dim,
		split: split,
		left:  t.build(idx[:mid]),
		right: t.build(idx[mid:]),
	}
}

// Dims implements Index.
func (t *KDTree) Dims() int { return t.data.Cols() }

// KNN implements Index.
func (t *KDTree) KNN(query []float64, k int) ([]knn.Neighbor, Stats) {
	if len(query) != t.Dims() {
		panic(fmt.Sprintf("index: query has %d dims, tree has %d", len(query), t.Dims()))
	}
	if k <= 0 {
		panic(fmt.Sprintf("index: k=%d must be positive", k))
	}
	c := knn.NewCollector(k)
	var stats Stats
	sq := knn.SquaredEuclidean{}
	var walk func(n *kdNode)
	walk = func(n *kdNode) {
		stats.NodesVisited++
		if n.points != nil {
			for _, i := range n.points {
				stats.PointsScanned++
				c.Offer(i, sq.Distance(t.data.RawRow(i), query))
			}
			return
		}
		diff := query[n.dim] - n.split
		near, far := n.left, n.right
		if diff >= 0 {
			near, far = n.right, n.left
		}
		walk(near)
		// The far child can only contain a closer point if the hyperplane
		// is nearer than the current k-th best (squared) distance.
		if diff*diff < c.Bound() {
			walk(far)
		}
	}
	walk(t.root)
	return sqrtResults(c.Results()), stats
}
