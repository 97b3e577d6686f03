package index

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// RTree is a static R-tree bulk-loaded with the Sort-Tile-Recursive (STR)
// algorithm, answering exact Euclidean k-NN queries with best-first search
// on minimum bounding rectangles (Roussopoulos et al., the paper's
// reference [18]). R-trees are the canonical partition index whose pruning
// the paper's §1.1 shows degrading with dimensionality.
type RTree struct {
	data *linalg.Dense
	root *rtNode
	fan  int
}

type rtNode struct {
	// mbr is the minimum bounding rectangle: lo/hi per dimension.
	lo, hi []float64
	// children is nil for leaves.
	children []*rtNode
	// points holds the row indices stored at a leaf.
	points []int
}

// DefaultFanout is the node capacity used when 0 is passed to BuildRTree.
const DefaultFanout = 16

// BuildRTree bulk-loads an R-tree over the rows of data with the given node
// capacity (fanout <= 0 selects DefaultFanout). The matrix is retained, not
// copied.
func BuildRTree(data *linalg.Dense, fanout int) *RTree {
	if fanout <= 1 {
		fanout = DefaultFanout
	}
	n, _ := data.Dims()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t := &RTree{data: data, fan: fanout}

	// STR leaf packing: recursively tile by successive dimensions.
	leaves := t.packLeaves(idx)
	nodes := leaves
	for len(nodes) > 1 {
		nodes = t.packNodes(nodes)
	}
	t.root = nodes[0]
	return t
}

// packLeaves tiles point indices into leaves of up to fan points using STR
// on the first two dimensions (standard practice; MBRs remain
// full-dimensional so correctness never depends on the tiling dims).
func (t *RTree) packLeaves(idx []int) []*rtNode {
	n := len(idx)
	leafCount := (n + t.fan - 1) / t.fan
	slices := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sort.Slice(idx, func(a, b int) bool { return t.data.At(idx[a], 0) < t.data.At(idx[b], 0) })
	perSlice := (n + slices - 1) / slices
	var leaves []*rtNode
	sortDim := 0
	if t.data.Cols() > 1 {
		sortDim = 1
	}
	for s := 0; s < n; s += perSlice {
		e := s + perSlice
		if e > n {
			e = n
		}
		slice := idx[s:e]
		sort.Slice(slice, func(a, b int) bool { return t.data.At(slice[a], sortDim) < t.data.At(slice[b], sortDim) })
		for p := 0; p < len(slice); p += t.fan {
			q := p + t.fan
			if q > len(slice) {
				q = len(slice)
			}
			leaf := &rtNode{points: append([]int(nil), slice[p:q]...)}
			t.computeLeafMBR(leaf)
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packNodes groups child nodes into parents of up to fan children, tiling by
// MBR centers.
func (t *RTree) packNodes(children []*rtNode) []*rtNode {
	n := len(children)
	parentCount := (n + t.fan - 1) / t.fan
	slices := int(math.Ceil(math.Sqrt(float64(parentCount))))
	center := func(nd *rtNode, dim int) float64 { return (nd.lo[dim] + nd.hi[dim]) / 2 }
	sort.Slice(children, func(a, b int) bool { return center(children[a], 0) < center(children[b], 0) })
	perSlice := (n + slices - 1) / slices
	sortDim := 0
	if len(children[0].lo) > 1 {
		sortDim = 1
	}
	var parents []*rtNode
	for s := 0; s < n; s += perSlice {
		e := s + perSlice
		if e > n {
			e = n
		}
		slice := children[s:e]
		sort.Slice(slice, func(a, b int) bool { return center(slice[a], sortDim) < center(slice[b], sortDim) })
		for p := 0; p < len(slice); p += t.fan {
			q := p + t.fan
			if q > len(slice) {
				q = len(slice)
			}
			parent := &rtNode{children: append([]*rtNode(nil), slice[p:q]...)}
			t.computeInnerMBR(parent)
			parents = append(parents, parent)
		}
	}
	return parents
}

func (t *RTree) computeLeafMBR(n *rtNode) {
	d := t.data.Cols()
	n.lo = make([]float64, d)
	n.hi = make([]float64, d)
	copy(n.lo, t.data.RawRow(n.points[0]))
	copy(n.hi, t.data.RawRow(n.points[0]))
	for _, i := range n.points[1:] {
		row := t.data.RawRow(i)
		for j, v := range row {
			if v < n.lo[j] {
				n.lo[j] = v
			}
			if v > n.hi[j] {
				n.hi[j] = v
			}
		}
	}
}

func (t *RTree) computeInnerMBR(n *rtNode) {
	d := len(n.children[0].lo)
	n.lo = append([]float64(nil), n.children[0].lo...)
	n.hi = append([]float64(nil), n.children[0].hi...)
	for _, c := range n.children[1:] {
		for j := 0; j < d; j++ {
			if c.lo[j] < n.lo[j] {
				n.lo[j] = c.lo[j]
			}
			if c.hi[j] > n.hi[j] {
				n.hi[j] = c.hi[j]
			}
		}
	}
}

// minDistSq returns the squared Euclidean distance from the query to the
// nearest point of the MBR (the optimistic bound of [18]).
func (n *rtNode) minDistSq(q []float64) float64 {
	s := 0.0
	for j, v := range q {
		switch {
		case v < n.lo[j]:
			d := n.lo[j] - v
			s += d * d
		case v > n.hi[j]:
			d := v - n.hi[j]
			s += d * d
		}
	}
	return s
}

// Dims implements Index.
func (t *RTree) Dims() int { return t.data.Cols() }

// nodeQueue is a min-heap of nodes keyed by optimistic distance.
type nodeEntry struct {
	node *rtNode
	dist float64
}
type nodeQueue []nodeEntry

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(nodeEntry)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	out := old[n-1]
	*q = old[:n-1]
	return out
}

// KNN implements Index using best-first traversal: nodes are expanded in
// ascending optimistic-bound order and skipped once the bound is no better
// than the current k-th nearest distance.
func (t *RTree) KNN(query []float64, k int) ([]knn.Neighbor, Stats) {
	if len(query) != t.Dims() {
		panic(fmt.Sprintf("index: query has %d dims, rtree has %d", len(query), t.Dims()))
	}
	if k <= 0 {
		panic(fmt.Sprintf("index: k=%d must be positive", k))
	}
	c := knn.NewCollector(k)
	var stats Stats
	sq := knn.SquaredEuclidean{}
	pq := &nodeQueue{{node: t.root, dist: t.root.minDistSq(query)}}
	for pq.Len() > 0 {
		e := heap.Pop(pq).(nodeEntry)
		if e.dist >= c.Bound() {
			break // every remaining node is at least this far
		}
		stats.NodesVisited++
		if e.node.points != nil {
			for _, i := range e.node.points {
				stats.PointsScanned++
				c.Offer(i, sq.Distance(t.data.RawRow(i), query))
			}
			continue
		}
		for _, child := range e.node.children {
			d := child.minDistSq(query)
			if d < c.Bound() {
				heap.Push(pq, nodeEntry{node: child, dist: d})
			}
		}
	}
	return sqrtResults(c.Results()), stats
}
