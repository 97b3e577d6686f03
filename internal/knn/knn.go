package knn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
)

// Neighbor is a search result: the row index of the matched point and its
// distance from the query.
type Neighbor struct {
	Index int
	Dist  float64
}

// neighborHeap is a bounded max-heap on distance, keeping the k closest
// points seen so far with the current worst at the root. The sift
// operations are hand-rolled rather than going through container/heap:
// heap.Push boxes every pushed Neighbor into an interface{}, which costs
// one heap allocation per admitted candidate on the scan hot path.
type neighborHeap []Neighbor

func (h neighborHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Dist >= h[i].Dist {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h neighborHeap) siftDown(i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && h[l].Dist > h[worst].Dist {
			worst = l
		}
		if r := 2*i + 2; r < n && h[r].Dist > h[worst].Dist {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Collector accumulates the k nearest neighbors of a query incrementally.
// It is the shared result structure used by the brute-force scan and by all
// index structures, so results are directly comparable.
type Collector struct {
	k    int
	heap neighborHeap
}

// NewCollector creates a collector for the k nearest neighbors.
func NewCollector(k int) *Collector {
	if k <= 0 {
		panic(fmt.Sprintf("knn: collector k=%d must be positive", k))
	}
	return &Collector{k: k, heap: make(neighborHeap, 0, k)}
}

// Reset reinitializes the collector for a new query of capacity k,
// retaining the heap's backing array when it is already large enough —
// the hook that lets scan loops pool collectors across queries instead
// of allocating one per query.
func (c *Collector) Reset(k int) {
	if k <= 0 {
		panic(fmt.Sprintf("knn: collector k=%d must be positive", k))
	}
	c.k = k
	if cap(c.heap) < k {
		c.heap = make(neighborHeap, 0, k)
	}
	c.heap = c.heap[:0]
}

// Offer considers a candidate point. It returns true if the candidate was
// admitted (it was closer than the current k-th best, or the collector was
// not yet full).
//
//drlint:hotpath inline=1
func (c *Collector) Offer(index int, dist float64) bool {
	if len(c.heap) < c.k {
		c.heap = append(c.heap, Neighbor{Index: index, Dist: dist})
		c.heap.siftUp(len(c.heap) - 1)
		return true
	}
	if dist >= c.heap[0].Dist {
		return false
	}
	c.heap[0] = Neighbor{Index: index, Dist: dist}
	c.heap.siftDown(0)
	return true
}

// Full reports whether k candidates have been admitted.
func (c *Collector) Full() bool { return len(c.heap) == c.k }

// Bound is the admission threshold Offer applies: the current k-th best
// distance, or +Inf while the collector is not yet full; a candidate is
// admitted iff its distance is strictly below it. Index structures prune
// subtrees whose optimistic bound is no better than this, and blocked scans
// pre-filter a scored block against it before offering, which admits
// exactly the same set as offering every entry, so threshold pruning cannot
// change results.
func (c *Collector) Bound() float64 {
	if len(c.heap) < c.k {
		return math.Inf(1)
	}
	return c.heap[0].Dist
}

// LessNeighbor is the canonical result ordering shared by every search
// path: ascending distance, exact-distance ties broken by ascending index.
// The three-way comparison avoids == on floats while still defining a total
// order, so independently produced neighbor lists (scalar scan, batch
// engine, per-shard merges) sort identically.
func LessNeighbor(a, b Neighbor) bool {
	if a.Dist < b.Dist {
		return true
	}
	if a.Dist > b.Dist {
		return false
	}
	return a.Index < b.Index
}

// compareNeighbor is LessNeighbor as a three-way comparison. It is a
// named function rather than a literal so sorting on the scan hot path
// passes a static funcval — sort.Slice's interface boxing and per-call
// closure are what SortNeighbors is avoiding.
func compareNeighbor(a, b Neighbor) int {
	if LessNeighbor(a, b) {
		return -1
	}
	if LessNeighbor(b, a) {
		return 1
	}
	return 0
}

// SortNeighbors sorts a neighbor list in the canonical (distance, index)
// order without allocating.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, compareNeighbor)
}

// Results returns the collected neighbors sorted by ascending distance
// (ties broken by index for determinism).
func (c *Collector) Results() []Neighbor {
	out := make([]Neighbor, len(c.heap))
	copy(out, c.heap)
	SortNeighbors(out)
	return out
}

// Search scans all rows of data and returns the k nearest neighbors of
// query under the metric, sorted by ascending distance. exclude, if >= 0,
// skips that row index (used for leave-one-out queries where the query point
// itself is part of the data).
func Search(data *linalg.Dense, query []float64, k int, m Metric, exclude int) []Neighbor {
	n, d := data.Dims()
	if len(query) != d {
		panic(fmt.Sprintf("knn: query has %d dims, data has %d", len(query), d))
	}
	if k <= 0 {
		panic(fmt.Sprintf("knn: k=%d must be positive", k))
	}
	c := NewCollector(k)
	// Dimensions are validated once above, so the scan can use the metric's
	// raw kernel and skip the per-pair length check.
	dist := rawDistanceFunc(m)
	for i := 0; i < n; i++ {
		if i == exclude {
			continue
		}
		c.Offer(i, dist(data.RawRow(i), query))
	}
	return c.Results()
}

// SearchSet returns the k nearest neighbors of every row of queries against
// the rows of data. When data and queries share storage (self-search), pass
// selfExclude = true to skip the identical index.
func SearchSet(data, queries *linalg.Dense, k int, m Metric, selfExclude bool) [][]Neighbor {
	if queries.Cols() != data.Cols() {
		panic(fmt.Sprintf("knn: queries have %d dims, data has %d", queries.Cols(), data.Cols()))
	}
	out := make([][]Neighbor, queries.Rows())
	for i := 0; i < queries.Rows(); i++ {
		ex := -1
		if selfExclude {
			ex = i
		}
		out[i] = Search(data, queries.RawRow(i), k, m, ex)
	}
	return out
}

// Overlap returns |a ∩ b| / k where a and b are neighbor lists of length k —
// the precision of one neighbor set with respect to another. This is how the
// paper quantifies how far aggressive reduction drifts from the original
// full-dimensional neighbors ("precision ... was often in the range of 10%
// or so").
func Overlap(a, b []Neighbor) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[int]bool, len(a))
	for _, n := range a {
		set[n.Index] = true
	}
	hits := 0
	for _, n := range b {
		if set[n.Index] {
			hits++
		}
	}
	den := len(a)
	if len(b) > den {
		den = len(b)
	}
	return float64(hits) / float64(den)
}
