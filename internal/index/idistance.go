package index

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/knn"
	"repro/internal/linalg"
)

// IDistance is the one-dimensional mapping index of Yu, Ooi, Jagadish &
// Tan: every point is assigned to its nearest reference point (k-means
// centroids) and keyed by
//
//	key(p) = partition(p)·C + ‖p − ref_partition(p)‖
//
// in a sorted key array, where C exceeds every within-partition radius (the
// original keeps the keys in a B+ tree; this index is built once and never
// mutated, so the sorted array is that tree's leaf level). A k-NN query
// expands a search radius r: by the triangle inequality, a partition-i
// point within r of the query has a key in
// [i·C + d(q,ref_i) − r, i·C + min(maxRadius_i, d(q,ref_i) + r)], so each
// round scans only the new key ranges. The search is exact and terminates
// when the k-th best distance is within the proven radius.
//
// iDistance thrives exactly where the paper positions indexing: in the
// aggressively reduced space, where distances are meaningful and the
// one-dimensional mapping is selective.
type IDistance struct {
	data   *linalg.Dense
	refs   *linalg.Dense
	keys   []float64 // ascending; equal keys in ascending row order
	rows   []int     // rows[i] is the data row keyed by keys[i]
	maxRad []float64
	stride float64
	deltaR float64
}

// BuildIDistance indexes the rows of data using `partitions` reference
// points chosen by k-means (seeded deterministically). The matrix is
// retained, not copied.
func BuildIDistance(data *linalg.Dense, partitions int, seed int64) *IDistance {
	n, _ := data.Dims()
	if partitions < 1 {
		panic(fmt.Sprintf("index: IDistance partitions=%d must be >= 1", partitions))
	}
	if partitions > n {
		partitions = n
	}
	km, err := cluster.KMeans(data, cluster.KMeansConfig{K: partitions, Seed: seed, Restarts: 2})
	if err != nil {
		panic(fmt.Sprintf("index: IDistance clustering: %v", err))
	}
	id := &IDistance{
		data:   data,
		refs:   km.Centroids,
		maxRad: make([]float64, partitions),
	}
	dists := make([]float64, n)
	for i := 0; i < n; i++ {
		d := linalg.Dist2(data.RawRow(i), km.Centroids.RawRow(km.Assign[i]))
		dists[i] = d
		if d > id.maxRad[km.Assign[i]] {
			id.maxRad[km.Assign[i]] = d
		}
	}
	maxAll := 0.0
	for _, r := range id.maxRad {
		if r > maxAll {
			maxAll = r
		}
	}
	id.stride = maxAll*2 + 1 // strictly separates partition key bands
	id.deltaR = maxAll / 8
	if id.deltaR == 0 {
		id.deltaR = 1
	}
	key := dists // reused: key[i] = partition band + distance to its reference
	for i, d := range dists {
		key[i] = float64(km.Assign[i])*id.stride + d
	}
	id.rows = make([]int, n)
	for i := range id.rows {
		id.rows[i] = i
	}
	sort.SliceStable(id.rows, func(a, b int) bool { return key[id.rows[a]] < key[id.rows[b]] })
	id.keys = make([]float64, n)
	for i, r := range id.rows {
		id.keys[i] = key[r]
	}
	return id
}

// scan calls offer with the row of every entry whose key lies in [from, to].
func (id *IDistance) scan(from, to float64, offer func(row int)) {
	for i := sort.SearchFloat64s(id.keys, from); i < len(id.keys) && id.keys[i] <= to; i++ {
		offer(id.rows[i])
	}
}

// Dims implements Index.
func (id *IDistance) Dims() int { return id.data.Cols() }

// Partitions returns the number of reference points.
func (id *IDistance) Partitions() int { return id.refs.Rows() }

// KNN implements Index. NodesVisited counts key-array entries touched;
// PointsScanned counts exact distance computations.
func (id *IDistance) KNN(query []float64, k int) ([]knn.Neighbor, Stats) {
	if len(query) != id.Dims() {
		panic(fmt.Sprintf("index: query has %d dims, idistance has %d", len(query), id.Dims()))
	}
	if k <= 0 {
		panic(fmt.Sprintf("index: k=%d must be positive", k))
	}
	var stats Stats
	parts := id.Partitions()
	qd := make([]float64, parts) // distance from query to each reference
	for p := 0; p < parts; p++ {
		qd[p] = linalg.Dist2(query, id.refs.RawRow(p))
	}
	// Scanned key intervals per partition: [lo[p], hi[p]) already visited.
	lo := make([]float64, parts)
	hi := make([]float64, parts)
	started := make([]bool, parts)

	c := knn.NewCollector(k)
	scanned := make(map[int]bool)
	offer := func(i int) {
		stats.NodesVisited++
		if scanned[i] {
			return
		}
		scanned[i] = true
		stats.PointsScanned++
		c.Offer(i, linalg.Dist2(id.data.RawRow(i), query))
	}

	r := id.deltaR
	maxR := 0.0
	for p := 0; p < parts; p++ {
		if v := qd[p] + id.maxRad[p]; v > maxR {
			maxR = v
		}
	}
	for {
		for p := 0; p < parts; p++ {
			// A partition can contain a point within r of the query only if
			// the query sphere intersects the partition sphere.
			if qd[p]-r > id.maxRad[p] {
				continue
			}
			base := float64(p) * id.stride
			wantLo := math.Max(0, qd[p]-r)
			wantHi := math.Min(id.maxRad[p], qd[p]+r)
			if !started[p] {
				started[p] = true
				lo[p], hi[p] = wantLo, wantHi
				id.scan(base+wantLo, base+wantHi, offer)
				continue
			}
			// Scan only the newly uncovered sub-ranges; boundary overlaps
			// are harmless because offer dedupes by point id.
			if wantLo < lo[p] {
				id.scan(base+wantLo, base+lo[p], offer)
				lo[p] = wantLo
			}
			if wantHi > hi[p] {
				id.scan(base+hi[p], base+wantHi, offer)
				hi[p] = wantHi
			}
		}
		// Exact termination: the k-th best distance is provably final once
		// it is within the searched radius.
		if c.Full() && c.Bound() <= r {
			break
		}
		if r > maxR {
			break // searched everything reachable
		}
		r += id.deltaR
	}
	return c.Results(), stats
}
