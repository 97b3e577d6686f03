package index

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// VAFile is a vector-approximation file (Weber, Schek & Blott, VLDB 1998 —
// the paper's reference [21]): each point is quantized to a small grid cell
// per dimension; queries first scan the compact approximations computing
// lower/upper distance bounds, then fetch only the full vectors that might
// still be among the k nearest. In high dimensionality the sequential
// approximation scan beats partition trees, which is exactly the regime the
// paper targets.
type VAFile struct {
	data *linalg.Dense
	// boundaries[j] holds the cell boundaries of dimension j
	// (cellsPerDim+1 ascending values covering the data range).
	boundaries [][]float64
	// cells[i*d+j] is the cell of point i in dimension j.
	cells []uint8
	bits  int
}

// BuildVAFile quantizes the rows of data using 2^bits equi-width cells per
// dimension (1 <= bits <= 8). The matrix is retained, not copied.
func BuildVAFile(data *linalg.Dense, bits int) *VAFile {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("index: VAFile bits=%d out of [1,8]", bits))
	}
	n, d := data.Dims()
	cellsPerDim := 1 << bits
	v := &VAFile{data: data, bits: bits, boundaries: make([][]float64, d), cells: make([]uint8, n*d)}
	for j := 0; j < d; j++ {
		lo, hi := data.At(0, j), data.At(0, j)
		for i := 1; i < n; i++ {
			x := data.At(i, j)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		//drlint:ignore floatcmp exact degenerate-range check: any nonzero width yields usable cell bounds, only an exactly flat dimension needs widening
		if hi == lo {
			hi = lo + 1 // degenerate dimension: one fat cell region
		}
		bs := make([]float64, cellsPerDim+1)
		for c := 0; c <= cellsPerDim; c++ {
			bs[c] = lo + (hi-lo)*float64(c)/float64(cellsPerDim)
		}
		v.boundaries[j] = bs
	}
	for i := 0; i < n; i++ {
		row := data.RawRow(i)
		for j, x := range row {
			v.cells[i*d+j] = v.cellOf(j, x)
		}
	}
	return v
}

func (v *VAFile) cellOf(j int, x float64) uint8 {
	bs := v.boundaries[j]
	cellsPerDim := len(bs) - 1
	lo, hi := bs[0], bs[cellsPerDim]
	c := int(float64(cellsPerDim) * (x - lo) / (hi - lo))
	if c < 0 {
		c = 0
	}
	if c >= cellsPerDim {
		c = cellsPerDim - 1
	}
	return uint8(c)
}

// Dims implements Index.
func (v *VAFile) Dims() int { return v.data.Cols() }

// KNN implements Index via the standard two-phase VA-SSA algorithm.
// NodesVisited counts approximation records examined (always n);
// PointsScanned counts full vectors refined in phase two.
func (v *VAFile) KNN(query []float64, k int) ([]knn.Neighbor, Stats) {
	n, d := v.data.Dims()
	if len(query) != d {
		panic(fmt.Sprintf("index: query has %d dims, va-file has %d", len(query), d))
	}
	if k <= 0 {
		panic(fmt.Sprintf("index: k=%d must be positive", k))
	}
	var stats Stats

	// Phase 1: bound every approximation; keep the k-th smallest upper
	// bound as the filtering threshold.
	type bound struct {
		idx  int
		lbSq float64
	}
	lb := make([]bound, n)
	ubHeap := knn.NewCollector(k)
	for i := 0; i < n; i++ {
		stats.NodesVisited++
		lbSq, ubSq := v.boundsSq(i, query)
		lb[i] = bound{idx: i, lbSq: lbSq}
		ubHeap.Offer(i, ubSq)
	}
	threshold := ubHeap.Bound()

	// Phase 2: visit candidates in ascending lower-bound order, refining
	// with exact distances; stop when the next lower bound exceeds the
	// current k-th best exact distance.
	sort.Slice(lb, func(a, b int) bool { return lb[a].lbSq < lb[b].lbSq })
	c := knn.NewCollector(k)
	sq := knn.SquaredEuclidean{}
	for _, b := range lb {
		if b.lbSq > threshold {
			break
		}
		if c.Full() && b.lbSq > c.Bound() {
			break
		}
		stats.PointsScanned++
		c.Offer(b.idx, sq.Distance(v.data.RawRow(b.idx), query))
	}
	return sqrtResults(c.Results()), stats
}

// boundsSq returns squared lower and upper bounds on the Euclidean distance
// between the query and point i, derived from i's cell only.
func (v *VAFile) boundsSq(i int, query []float64) (lbSq, ubSq float64) {
	d := v.data.Cols()
	for j := 0; j < d; j++ {
		cell := int(v.cells[i*d+j])
		lo := v.boundaries[j][cell]
		hi := v.boundaries[j][cell+1]
		q := query[j]
		// Lower bound: distance from q to the cell interval.
		var l float64
		switch {
		case q < lo:
			l = lo - q
		case q > hi:
			l = q - hi
		}
		lbSq += l * l
		// Upper bound: distance to the farthest cell edge.
		u := math.Max(math.Abs(q-lo), math.Abs(q-hi))
		ubSq += u * u
	}
	return lbSq, ubSq
}

// sqrtResults converts squared-Euclidean collector output to true distances.
func sqrtResults(res []knn.Neighbor) []knn.Neighbor {
	for i := range res {
		res[i].Dist = math.Sqrt(res[i].Dist)
	}
	return res
}
