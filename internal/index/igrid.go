package index

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// IGrid implements the inverted-grid similarity index of the paper's
// reference [3] (Aggarwal & Yu, "The IGrid Index: Reversing the
// Dimensionality Curse for Similarity Indexing in High Dimensional Space",
// KDD 2000). Every dimension is split into equi-depth ranges; two points
// are similar along a dimension only when they fall in the same range, and
// the overall similarity aggregates the per-dimension proximity of the
// matching dimensions:
//
//	PIDist(a, b) = [ Σ_{j : range(a_j) = range(b_j)} (1 − |a_j − b_j|/w_j)^p ]^(1/p)
//
// where w_j is the width of the shared range. Because only same-range
// dimensions contribute, similarity is driven by the dimensions where two
// points genuinely agree — the property that keeps nearest-neighbor
// contrast meaningful in high dimensionality. Queries use inverted lists:
// only points sharing at least one range with the query are scored at all.
type IGrid struct {
	data   *linalg.Dense
	p      float64
	ranges int
	// boundaries[j] holds ranges+1 ascending equi-depth boundaries.
	boundaries [][]float64
	// lists[j][r] holds the row indices whose dimension j falls in range r.
	lists [][][]int32
	// cells[i*d+j] is the range of point i in dimension j.
	cells []uint16
}

// BuildIGrid indexes the rows of data with the given number of equi-depth
// ranges per dimension (the IGrid paper's kd; 2 <= ranges <= 65535) and
// Minkowski aggregation order p > 0 (2 is the usual choice). The matrix is
// retained, not copied.
func BuildIGrid(data *linalg.Dense, ranges int, p float64) *IGrid {
	if ranges < 2 || ranges > math.MaxUint16 {
		panic(fmt.Sprintf("index: IGrid ranges=%d out of [2,%d]", ranges, math.MaxUint16))
	}
	if !(p > 0) || math.IsInf(p, 0) || math.IsNaN(p) {
		panic(fmt.Sprintf("index: IGrid p=%v must be a positive finite number", p))
	}
	n, d := data.Dims()
	g := &IGrid{
		data:       data,
		p:          p,
		ranges:     ranges,
		boundaries: make([][]float64, d),
		lists:      make([][][]int32, d),
		cells:      make([]uint16, n*d),
	}
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			col[i] = data.At(i, j)
		}
		g.boundaries[j] = equiDepthBoundaries(col, ranges)
		g.lists[j] = make([][]int32, ranges)
		for i := 0; i < n; i++ {
			r := g.rangeOf(j, col[i])
			g.cells[i*d+j] = uint16(r)
			g.lists[j][r] = append(g.lists[j][r], int32(i))
		}
	}
	return g
}

// equiDepthBoundaries returns ranges+1 ascending boundaries splitting the
// values into (approximately) equal-count buckets. Duplicate quantiles are
// nudged so boundaries stay strictly increasing wherever the data allows.
func equiDepthBoundaries(values []float64, ranges int) []float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	bs := make([]float64, ranges+1)
	bs[0] = sorted[0]
	bs[ranges] = sorted[n-1]
	for r := 1; r < ranges; r++ {
		pos := float64(r) * float64(n-1) / float64(ranges)
		lo := int(pos)
		frac := pos - float64(lo)
		v := sorted[lo]
		if lo+1 < n {
			v = sorted[lo]*(1-frac) + sorted[lo+1]*frac
		}
		bs[r] = v
	}
	// Enforce non-decreasing boundaries (constant stretches collapse).
	for r := 1; r <= ranges; r++ {
		if bs[r] < bs[r-1] {
			bs[r] = bs[r-1]
		}
	}
	return bs
}

// rangeOf locates the range of value x in dimension j by binary search.
func (g *IGrid) rangeOf(j int, x float64) int {
	bs := g.boundaries[j]
	// Find the first boundary greater than x; the range is the one before.
	r := sort.SearchFloat64s(bs[1:len(bs)-1], x)
	// bs has len ranges+1; searching the interior boundaries gives r in
	// [0, ranges-1] directly.
	if r < 0 {
		r = 0
	}
	if r >= g.ranges {
		r = g.ranges - 1
	}
	return r
}

// Dims returns the dimensionality.
func (g *IGrid) Dims() int { return g.data.Cols() }

// Similarity computes PIDist between the query and stored point i.
// Larger is more similar; a point equal to the query scores d^(1/p).
func (g *IGrid) Similarity(query []float64, i int) float64 {
	d := g.Dims()
	if len(query) != d {
		panic(fmt.Sprintf("index: query has %d dims, igrid has %d", len(query), d))
	}
	sum := 0.0
	row := g.data.RawRow(i)
	for j := 0; j < d; j++ {
		qr := g.rangeOf(j, query[j])
		if int(g.cells[i*d+j]) != qr {
			continue
		}
		sum += g.contribution(j, qr, query[j], row[j])
	}
	return math.Pow(sum, 1/g.p)
}

func (g *IGrid) contribution(j, r int, a, b float64) float64 {
	lo := g.boundaries[j][r]
	hi := g.boundaries[j][r+1]
	w := hi - lo
	if w == 0 {
		return 1 // degenerate range: exact agreement by construction
	}
	v := 1 - math.Abs(a-b)/w
	if v < 0 {
		v = 0 // clamp for queries outside the stored range span
	}
	return math.Pow(v, g.p)
}

// KNN returns the k most similar stored points to the query in descending
// similarity order (ties broken by index), along with the work performed.
// NodesVisited counts inverted-list entries touched; PointsScanned counts
// distinct candidate points scored. Points sharing no range with the query
// have similarity 0 and are only returned when fewer than k candidates
// exist.
func (g *IGrid) KNN(query []float64, k int) ([]knn.Neighbor, Stats) {
	n, d := g.data.Dims()
	if len(query) != d {
		panic(fmt.Sprintf("index: query has %d dims, igrid has %d", len(query), d))
	}
	if k <= 0 {
		panic(fmt.Sprintf("index: k=%d must be positive", k))
	}
	var stats Stats
	// Accumulate per-candidate similarity mass via the inverted lists.
	sums := make(map[int32]float64)
	for j := 0; j < d; j++ {
		qr := g.rangeOf(j, query[j])
		for _, i := range g.lists[j][qr] {
			stats.NodesVisited++
			sums[i] += g.contribution(j, qr, query[j], g.data.At(int(i), j))
		}
	}
	stats.PointsScanned = len(sums)

	type scored struct {
		idx int32
		sim float64
	}
	cands := make([]scored, 0, len(sums))
	for i, s := range sums {
		cands = append(cands, scored{idx: i, sim: math.Pow(s, 1/g.p)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].sim != cands[b].sim {
			return cands[a].sim > cands[b].sim
		}
		return cands[a].idx < cands[b].idx
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]knn.Neighbor, 0, k)
	for _, c := range cands {
		out = append(out, knn.Neighbor{Index: int(c.idx), Dist: c.sim})
	}
	// Fewer candidates than k: pad with zero-similarity points.
	if len(out) < k {
		seen := make(map[int]bool, len(out))
		for _, nb := range out {
			seen[nb.Index] = true
		}
		for i := 0; i < n && len(out) < k; i++ {
			if !seen[i] {
				out = append(out, knn.Neighbor{Index: i, Dist: 0})
			}
		}
	}
	return out, stats
}
