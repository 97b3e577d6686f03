// Package lsh is the approximate similarity-search subsystem: a p-stable
// random-projection locality-sensitive hash index (Datar et al., SoCG 2004)
// with L independent hash tables and query-directed multi-probe querying
// (Lv et al., VLDB 2007). Each of the m hash functions of a table slices
// the data along a random Gaussian direction into slots of width w; a
// table's bucket key concatenates its m slot numbers. Probing neighboring
// buckets in the order an ideal perturbation would visit them lets few
// tables reach the recall that basic LSH needs an order of magnitude more
// tables for — which is what makes approximate search on reduced
// representations practical at production scale.
//
// Every query reports index.Stats with BucketsProbed and CandidateSize
// filled in, so experiments can chart recall against ScanFraction with the
// exact indexes as ground truth.
package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/knn"
	"repro/internal/linalg"
)

// Defaults used when Config fields are zero.
const (
	DefaultTables = 8
	DefaultHashes = 12
)

// Config parameterizes Build.
type Config struct {
	// Tables is L, the number of independent hash tables (0 selects
	// DefaultTables). More tables raise recall and memory linearly.
	Tables int
	// Hashes is m, the number of projections concatenated per table key
	// (0 selects DefaultHashes). More hashes make buckets smaller and more
	// selective.
	Hashes int
	// Width is the slot width w of each projection. 0 estimates a width
	// from the data's nearest-neighbor radius so the home slot is
	// neighborhood-sized.
	Width float64
	// Seed is the root seed. Every table's projections and offsets derive
	// deterministically from it, so builds and queries are byte-identical
	// across runs and independent of construction parallelism.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Tables == 0 {
		c.Tables = DefaultTables
	}
	if c.Hashes == 0 {
		c.Hashes = DefaultHashes
	}
	return c
}

// Index is a built multi-probe LSH structure: an approximate Euclidean
// k-nearest-neighbor index whose results may miss true neighbors. The
// probes argument of its queries trades work for recall, and the returned
// index.Stats report how many buckets were probed and how large the refined
// candidate set was, so experiments can chart recall against ScanFraction.
type Index struct {
	data   *linalg.Dense
	norms  []float64 // squared L2 norm of every data row, cached at Build
	tables []table
	hashes int
	width  float64
	seed   int64
}

// table is one independent hash family: m Gaussian directions, m slot
// offsets, and the bucket map from encoded slot vectors to point ids.
type table struct {
	proj    []float64 // hashes x dims, row-major
	off     []float64 // hashes offsets in [0, w)
	buckets map[string][]int32
}

// Build hashes the rows of data into cfg.Tables bucket maps. The matrix is
// retained, not copied. Tables are built concurrently by a worker pool
// sized by runtime.GOMAXPROCS(0); each table is seeded independently from
// cfg.Seed, so the result does not depend on scheduling.
func Build(data *linalg.Dense, cfg Config) *Index {
	c := cfg.withDefaults()
	n, d := data.Dims()
	if n == 0 || d == 0 {
		panic(fmt.Sprintf("lsh: cannot index %dx%d data", n, d))
	}
	if c.Tables < 1 || c.Hashes < 1 {
		panic(fmt.Sprintf("lsh: tables=%d hashes=%d must be positive", c.Tables, c.Hashes))
	}
	if c.Width < 0 || math.IsNaN(c.Width) || math.IsInf(c.Width, 0) {
		panic(fmt.Sprintf("lsh: width=%v must be finite and non-negative", c.Width))
	}
	width := c.Width
	if width == 0 {
		width = estimateWidth(data, c.Seed)
	}
	ix := &Index{
		data:   data,
		norms:  linalg.RowNormsSq(data),
		tables: make([]table, c.Tables),
		hashes: c.Hashes,
		width:  width,
		seed:   c.Seed,
	}
	parallelFor(c.Tables, func(t int) {
		ix.tables[t] = buildTable(data, c.Hashes, width, deriveSeed(c.Seed, t))
	})
	return ix
}

// buildTable draws one table's hash family and buckets every point.
func buildTable(data *linalg.Dense, m int, width float64, seed int64) table {
	n, d := data.Dims()
	rng := rand.New(rand.NewSource(seed))
	tb := table{
		proj:    make([]float64, m*d),
		off:     make([]float64, m),
		buckets: make(map[string][]int32, n/2+1),
	}
	for i := range tb.proj {
		tb.proj[i] = rng.NormFloat64()
	}
	for j := range tb.off {
		tb.off[j] = rng.Float64() * width
	}
	hs := make([]int32, m)
	for i := 0; i < n; i++ {
		row := data.RawRow(i)
		for j := 0; j < m; j++ {
			hs[j] = slot(linalg.Dot(tb.proj[j*d:(j+1)*d], row), tb.off[j], width)
		}
		key := EncodeKey(hs)
		tb.buckets[key] = append(tb.buckets[key], int32(i))
	}
	return tb
}

// slot quantizes a projection to its slot number.
func slot(p, off, width float64) int32 {
	return int32(math.Floor((p + off) / width))
}

// deriveSeed expands the root seed into independent per-table seeds with a
// splitmix64 step, so tables are decorrelated even for adjacent roots.
func deriveSeed(root int64, i int) int64 {
	z := uint64(root) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// estimateWidth picks a data-driven slot width: twice the median 10-NN
// radius of a deterministic sample, so a home slot spans roughly one
// nearest-neighbor neighborhood along each projection.
func estimateWidth(data *linalg.Dense, seed int64) float64 {
	n := data.Rows()
	rng := rand.New(rand.NewSource(deriveSeed(seed, -2)))
	const maxQueries, maxRefs, radiusK = 24, 1024, 10
	qIdx := sampleRows(rng, n, maxQueries)
	rIdx := sampleRows(rng, n, maxRefs)
	e := knn.Euclidean{}
	radii := make([]float64, 0, len(qIdx))
	for _, qi := range qIdx {
		k := radiusK
		if k > len(rIdx)-1 {
			k = len(rIdx) - 1
		}
		if k < 1 {
			k = 1
		}
		c := knn.NewCollector(k)
		q := data.RawRow(qi)
		for _, ri := range rIdx {
			if ri == qi {
				continue
			}
			c.Offer(ri, e.Distance(data.RawRow(ri), q))
		}
		if res := c.Results(); len(res) > 0 {
			radii = append(radii, res[len(res)-1].Dist)
		}
	}
	sort.Float64s(radii)
	if len(radii) == 0 || radii[len(radii)/2] == 0 {
		return 1 // single-point or duplicate-saturated data: any width works
	}
	return 2 * radii[len(radii)/2]
}

// sampleRows returns up to max distinct row indices of [0, n), ascending,
// drawn deterministically from rng.
func sampleRows(rng *rand.Rand, n, max int) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	idx := rng.Perm(n)[:max]
	sort.Ints(idx)
	return idx
}

// Dims returns the dimensionality of the indexed points.
func (ix *Index) Dims() int { return ix.data.Cols() }

// MaxProbes returns the number of distinct buckets a query can probe per
// table: the home bucket plus every valid perturbation (3^m - 1 of them),
// capped to stay in int range.
func (ix *Index) MaxProbes() int {
	total := 1
	for i := 0; i < ix.hashes; i++ {
		if total > (1<<30)/3 {
			return 1 << 30
		}
		total *= 3
	}
	return total
}

// KNNApprox returns up to k approximate nearest neighbors of query by
// Euclidean distance, sorted ascending, along with the work performed: the
// union of the contents of `probes` buckets per table (the home bucket
// first, then neighbors in query-directed perturbation order) is refined
// with exact Euclidean distances and the k best are kept.
//
// Re-ranking runs through the batch-distance identity
// ‖x‖² + ‖q‖² − 2⟨x,q⟩ with the point norms cached at Build, so each
// candidate costs one fused dot product instead of a subtract-square scan.
// Admitted neighbors are rescored with the exact metric before returning.
func (ix *Index) KNNApprox(query []float64, k, probes int) ([]knn.Neighbor, index.Stats) {
	n, d := ix.data.Dims()
	if len(query) != d {
		panic(fmt.Sprintf("lsh: query has %d dims, index has %d", len(query), d))
	}
	if k <= 0 {
		panic(fmt.Sprintf("lsh: k=%d must be positive", k))
	}
	if probes < 1 {
		probes = 1
	}
	var stats index.Stats
	visited := make([]bool, n)
	cand := make([]int32, 0, 256)
	m := ix.hashes
	hs := make([]int32, m)
	frac := make([]float64, m)
	probed := make([]int32, m)
	for ti := range ix.tables {
		tb := &ix.tables[ti]
		for j := 0; j < m; j++ {
			f := (linalg.Dot(tb.proj[j*d:(j+1)*d], query) + tb.off[j]) / ix.width
			fl := math.Floor(f)
			hs[j] = int32(fl)
			frac[j] = f - fl
		}
		scan := func(key string) {
			stats.BucketsProbed++
			stats.NodesVisited++
			for _, id := range tb.buckets[key] {
				if visited[id] {
					continue
				}
				visited[id] = true
				stats.PointsScanned++
				stats.CandidateSize++
				cand = append(cand, id)
			}
		}
		scan(EncodeKey(hs))
		for _, deltas := range probeSequence(frac, probes-1) {
			for j, dv := range deltas {
				probed[j] = hs[j] + int32(dv)
			}
			scan(EncodeKey(probed))
		}
	}
	// Batch re-rank: candidates are offered in gather (scan) order, so tie
	// handling matches the previous per-bucket scoring exactly.
	qn := linalg.Dot(query, query)
	c := knn.NewCollector(k)
	for _, id := range cand {
		d2 := ix.norms[id] + qn - 2*linalg.Dot(ix.data.RawRow(int(id)), query)
		if d2 < 0 {
			d2 = 0
		}
		c.Offer(int(id), d2)
	}
	res := c.Results()
	e := knn.Euclidean{}
	for i := range res {
		res[i].Dist = e.Distance(ix.data.RawRow(res[i].Index), query)
	}
	knn.SortNeighbors(res)
	return res, stats
}

// KNNApproxSet answers every row of queries concurrently with a worker pool
// sized by runtime.GOMAXPROCS(0). Results and the summed stats are
// identical to calling KNNApprox on each row serially.
func (ix *Index) KNNApproxSet(queries *linalg.Dense, k, probes int) ([][]knn.Neighbor, index.Stats) {
	if queries.Cols() != ix.Dims() {
		panic(fmt.Sprintf("lsh: queries have %d dims, index has %d", queries.Cols(), ix.Dims()))
	}
	nq := queries.Rows()
	out := make([][]knn.Neighbor, nq)
	per := make([]index.Stats, nq)
	parallelFor(nq, func(i int) {
		out[i], per[i] = ix.KNNApprox(queries.RawRow(i), k, probes)
	})
	var total index.Stats
	for _, s := range per {
		total.Add(s)
	}
	return out, total
}

// parallelFor runs fn(i) for i in [0, n) on a pool of up to GOMAXPROCS
// workers. fn must be safe for concurrent distinct i.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
