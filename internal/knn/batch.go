package knn

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// This file is the batch-distance engine: Euclidean k-NN over a whole query
// set computed as a handful of blocked GEMM kernels instead of O(nq·n)
// scalar metric calls. Squared distances come from the norm-cache identity
//
//	D²[i][j] = ‖qᵢ‖² + ‖xⱼ‖² − 2·⟨qᵢ, xⱼ⟩
//
// with the inner-product matrix produced block by block with
// linalg.MulTInto, so a data tile is read once per query block rather than
// once per query, and ‖x‖² computed once per matrix by
// linalg.MulTRowNormsSq — the norm on the same summation chain as the
// product, so the three terms of an identical pair cancel to exactly zero.

const (
	// batchQueryBlock is the number of query rows per GEMM block.
	batchQueryBlock = 128
	// batchDataTile is the number of data rows per GEMM tile. Together with
	// batchQueryBlock it bounds scratch memory (block × tile float64s — 2 MB)
	// and keeps a tile's inner-product block cache-resident while the
	// collectors scan it.
	batchDataTile = 2048
	// batchSelfBlock is the side of the square tiles a self-join walks
	// (searchSelfTiles): block² float64s of scratch — 512 KB — that a core's
	// L2 keeps while a diagonal tile's scan reads it back.
	batchSelfBlock = 256
)

// PairwiseSq returns the queries.Rows() × data.Rows() matrix of squared
// Euclidean distances between every query row and every data row, computed
// through the blocked GEMM kernel with cached row norms. Entries are clamped
// at zero (the norm-cache identity can round to a tiny negative for
// near-identical points; for identical rows it is exactly zero). The result
// is O(nq·n) memory; for k-NN workloads prefer SearchSetBatch, which tiles
// instead of materializing.
func PairwiseSq(data, queries *linalg.Dense) *linalg.Dense {
	if data.Cols() != queries.Cols() {
		panic(fmt.Sprintf("knn: pairwise dimension mismatch %d vs %d", queries.Cols(), data.Cols()))
	}
	dn := linalg.MulTRowNormsSq(data)
	qn := linalg.MulTRowNormsSq(queries)
	out := linalg.MulT(queries, data)
	for i := 0; i < out.Rows(); i++ {
		row := out.RawRow(i)
		qi := qn[i]
		for j, g := range row {
			d2 := qi + dn[j] - 2*g
			if d2 < 0 {
				d2 = 0
			}
			row[j] = d2
		}
	}
	return out
}

// normCacheSlack is the relative width of the band within which a
// norm-cache comparison cannot vouch for the scalar one: two rows whose
// norm-cache squared distances from q differ by more than
// normCacheSlack(d)·(S + underflowFloor), S = ‖q‖² + max‖x‖², are strictly
// ordered the same way by the scalar Euclidean and SquaredEuclidean metrics.
// With u = 2⁻⁵³, per pair and per unit of its ‖q‖² + ‖x‖² ≤ S:
//
//   - norm cache: a d-step product chain errs by at most d·u·Σ|aₜbₜ|, so the
//     two norms contribute d·u·S and −2g another d·u·2‖q‖‖x‖ ≤ d·u·S; the
//     two additions that assemble D² add 3u·S (the clamp at zero only moves
//     a value towards the true D² ≥ 0). Total (2d+3)·u·S.
//   - scalar Σ(qₜ−xₜ)²: d+2 roundings per term, relative to the true
//     D² ≤ 2S. Total (2d+4)·u·S.
//   - a gap G between two norm-cache values therefore leaves at least
//     G − 2·(4d+7)·u·S between the scalar sums s₁ < s₂; SquaredEuclidean
//     needs that positive, and Euclidean needs s₂ ≥ s₁·(1+4u), at most
//     8u·S more, for √s₁ and √s₂ to stay apart after their own rounding.
//
// That is (8d+22)·u·S; 8·(d+8) leaves room for the second-order terms and
// for S being formed from the computed norms. Each rounding above may
// instead be a gradual underflow of at most one subnormal ulp, 2⁻¹⁰⁷⁴ =
// u·underflowFloor, which the floor term covers with the same count.
// TestNormCacheSlackHolds measures the real deviation against the bound.
func normCacheSlack(d int) float64 { return 8 * float64(d+8) * 0x1p-53 }

const underflowFloor = 0x1p-1021

// NormCacheSeparated reports whether the k nearest rows by norm-cache
// squared distance are the k nearest under the scalar Euclidean and
// SquaredEuclidean metrics too. ns holds the min(k+1, n) nearest of the n
// rows scanned, ascending by norm-cache distance, and s is ‖q‖² plus the
// largest ‖x‖² among those rows. It holds when every row is among the k, or
// when the k-th and (k+1)-th distances lie further apart than
// normCacheSlack allows the two arithmetics to disagree: then each of the
// first k is strictly nearer than every other row under the scalar metric
// as well, so a scalar scan keeps that same set whatever its tie handling
// inside it, and only the set's distances need rescoring. Inf or NaN
// coordinates, and norms within a factor 4 of overflow (the scalar sums can
// reach 2s), fail it whatever the gap.
func NormCacheSeparated(ns []Neighbor, k, d int, s float64) bool {
	if !(s <= math.MaxFloat64/4) {
		return false
	}
	return len(ns) <= k || ns[k].Dist-ns[k-1].Dist > normCacheSlack(d)*(s+underflowFloor)
}

// SearchSetBatch is SearchSet routed through the batch-distance engine, and
// returns exactly what SearchSet returns. For Euclidean and
// SquaredEuclidean metrics it computes per-tile inner-product blocks with
// the GEMM kernel and collects each query's k+1 nearest by norm-cache
// distance; every other metric runs Search per query across the same
// worker split.
//
// Why the answer is SearchSet's: if the k-th and (k+1)-th norm-cache
// distances of a query lie further apart than normCacheSlack allows the two
// arithmetics to disagree, then under the scalar metric too every one of the
// first k is strictly nearer than every other row, so the scalar scan keeps
// that same set whatever its tie handling inside it; rescoring the set with
// the scalar metric and sorting canonically then reproduces distances and
// order. A query whose gap is not that wide — duplicates, lattice data, a
// genuine near-tie at rank k — is answered by Search itself.
//
// When data and queries are the same matrix — every leave-one-out
// evaluation — each unordered pair's inner product is computed once and
// serves both of its rows (searchSelfTiles); the collectors, and so
// everything after them, end up exactly as the two-matrix schedule leaves
// them.
func SearchSetBatch(data, queries *linalg.Dense, k int, m Metric, selfExclude bool) [][]Neighbor {
	n, d := data.Dims()
	nq := queries.Rows()
	if queries.Cols() != d {
		panic(fmt.Sprintf("knn: queries have %d dims, data has %d", queries.Cols(), d))
	}
	if k <= 0 {
		panic(fmt.Sprintf("knn: k=%d must be positive", k))
	}
	switch m.(type) {
	case Euclidean, SquaredEuclidean:
	default:
		out := make([][]Neighbor, nq)
		parallelQueries(nq, func(i int) {
			ex := -1
			if selfExclude {
				ex = i
			}
			out[i] = Search(data, queries.RawRow(i), k, m, ex)
		})
		return out
	}
	dataNorms := linalg.MulTRowNormsSq(data)
	maxNorm := 0.0
	for _, v := range dataNorms {
		maxNorm = math.Max(maxNorm, v) // NaN propagates and fails every gap test
	}
	// One arena holds every collector's heap, k+1 slots each (n ≤ k: every
	// row is a neighbor); each heap's capacity ends at its own slots.
	kk := min(k+1, n)
	arena := make([]Neighbor, nq*kk)
	collectors := make([]Collector, nq)
	for i := range collectors {
		collectors[i].heap = arena[i*kk : i*kk : (i+1)*kk]
		collectors[i].Reset(kk)
	}
	queryNorms := dataNorms
	if data == queries {
		searchSelfTiles(data, dataNorms, collectors, selfExclude)
	} else {
		queryNorms = linalg.MulTRowNormsSq(queries)
		searchTiles(data, queries, dataNorms, queryNorms, collectors, selfExclude)
	}

	out := make([][]Neighbor, nq)
	parallelQueries(nq, func(i int) {
		// The collector is finished: its heap, sorted in place, is the
		// answer's storage.
		res := collectors[i].heap
		SortNeighbors(res)
		q := queries.RawRow(i)
		if !NormCacheSeparated(res, k, d, queryNorms[i]+maxNorm) {
			ex := -1
			if selfExclude {
				ex = i
			}
			out[i] = Search(data, q, k, m, ex)
			return
		}
		res = res[:min(k, len(res)):min(k, len(res))] // an append must not reach the next heap
		// Rescore with the scalar metric so reported distances are
		// bit-identical to the scalar path, then restore (dist, index)
		// order. O(nq·k·d) — noise next to the O(nq·n·d) scan.
		for t := range res {
			res[t].Dist = m.Distance(data.RawRow(res[t].Index), q)
		}
		SortNeighbors(res)
		out[i] = res
	})
	return out
}

// searchTiles is the two-matrix schedule: query blocks × data tiles, one
// GEMM and one scan per pair.
func searchTiles(data, queries *linalg.Dense, dataNorms, queryNorms []float64, collectors []Collector, selfExclude bool) {
	n, nq := data.Rows(), queries.Rows()
	tile := min(batchDataTile, n)
	block := min(batchQueryBlock, nq)
	scratch := make([]float64, block*tile)
	for qlo := 0; qlo < nq; qlo += block {
		qhi := min(qlo+block, nq)
		qview := queries.RowSlice(qlo, qhi)
		for jt := 0; jt < n; jt += tile {
			je := min(jt+tile, n)
			// The GEMM kernel parallelizes its own row panels; the
			// collector scans then parallelize over the block's queries.
			g := linalg.NewDenseData(qhi-qlo, je-jt, scratch[:(qhi-qlo)*(je-jt)])
			linalg.MulTInto(g, qview, data.RowSlice(jt, je))
			parallelQueries(qhi-qlo, func(bi int) {
				i := qlo + bi
				ex := -1
				if selfExclude {
					ex = i - jt // the query's own row, if it lies in this tile
				}
				scanTile(&collectors[i], g.RawRow(bi), dataNorms[jt:je], queryNorms[i], jt, ex)
			})
		}
	}
}

// searchSelfTiles is the self-join schedule: one square grid of
// batchSelfBlock-row blocks over x, of which only the tiles on or above the
// diagonal are computed. ⟨xᵢ,xⱼ⟩ and ⟨xⱼ,xᵢ⟩ are one product chain (each
// step's product commutes) and norms[i] + norms[j] one sum, so the d2 a
// strictly-upper tile (I, J) yields for (i, j) is, bit for bit, the value
// the two-matrix schedule computes twice; it is offered to collectors[i] as
// row j and to collectors[j] as row i.
//
// Why the collectors cannot tell: tiles are visited in row-major order, so
// collector j of block J is offered its mirrored candidates from blocks
// I < J first (ascending I, and within a tile ascending row i), then J's
// diagonal tile, then the tiles to its right — every candidate in ascending
// row index, each tested against the bound of the moment, which is the
// two-matrix scan's sequence. Equal-distance ties at the admission boundary
// are the one thing that depends on that order, and it is unchanged.
//
// Every tile's products come from linalg.SelfJoin.Strip, one call per
// strip of linalg.StripRows rows, which also marks the strip's pairs below
// their row's or their column's bound as the strip starts. A diagonal
// tile's strips are computed in parallel and the tile is scanned like a
// two-matrix tile, in parallel over its rows; its marks go unread. A
// strictly-upper tile is walked strip by strip: the kernel call, then
// resolveStrip, which offers the marked pairs row by row. A strip writes
// collectors of both its blocks from every row, so the walk runs on this
// goroutine alone (EXPERIMENTS.md, "The paper's op at the register tile",
// measures it against the parent's parallel products at one, two and
// eight processors).
func searchSelfTiles(x *linalg.Dense, norms []float64, collectors []Collector, selfExclude bool) {
	n := x.Rows()
	block := min(batchSelfBlock, n)
	scratch := make([]float64, block*block)
	// bounds[i] shadows collectors[i].Bound() in the contiguous form the
	// strip kernel reads a tile's rows and columns from.
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = collectors[i].Bound()
	}
	sj := linalg.NewSelfJoin(x)
	mask := make([]uint64, block*linalg.StripMaskWords(block))
	var ilo, ihi int
	diagonalStrip := func(s int) {
		i0, w := ilo+s*linalg.StripRows, ihi-ilo
		m := min(linalg.StripRows, ihi-i0)
		sj.Strip(scratch[s*linalg.StripRows*w:], mask[s*linalg.StripRows*linalg.StripMaskWords(w):], i0, m, ilo, w, norms, bounds)
	}
	scanDiagonal := func(bi int) {
		i, w := ilo+bi, ihi-ilo
		ex := -1
		if selfExclude {
			ex = bi
		}
		scanTile(&collectors[i], scratch[bi*w:][:w], norms[ilo:ihi], norms[i], ilo, ex)
		bounds[i] = collectors[i].Bound()
	}
	for ilo = 0; ilo < n; ilo += block {
		ihi = min(ilo+block, n)
		parallelQueries((ihi-ilo+linalg.StripRows-1)/linalg.StripRows, diagonalStrip)
		parallelQueries(ihi-ilo, scanDiagonal)
		for jlo := ihi; jlo < n; jlo += block {
			w := min(block, n-jlo)
			for i0 := ilo; i0 < ihi; i0 += linalg.StripRows {
				m := min(linalg.StripRows, ihi-i0)
				sj.Strip(scratch, mask, i0, m, jlo, w, norms, bounds)
				resolveStrip(collectors, bounds, norms, scratch[:m*w], mask, i0, jlo, w)
			}
		}
	}
}

// resolveStrip offers a strip's marked pairs (SelfJoin.Strip: products g,
// len(g)/w rows from row i0 by w columns from j0, and their mask) as
// scanTile would offer each row of the tile to its collector and to each
// column's: row by row, columns ascending, each d2 recomputed from g and
// tested against the row's and the column's bound of the moment. A bound
// only falls, so an unmarked pair, not below the bounds the strip started
// from, cannot be below these — until an offer leaves a bound at NaN, which
// nothing is at or above: from there on every pair of the strip is tested,
// marked or not. norms and bounds are the whole matrix's.
//
//drlint:hotpath inline=2
func resolveStrip(collectors []Collector, bounds, norms, g []float64, mask []uint64, i0, j0, w int) {
	words := linalg.StripMaskWords(w)
	all := false
	for r := 0; r < len(g)/w; r++ {
		i := i0 + r
		qn, bound := norms[i], bounds[i]
		row := &collectors[i]
		grow := g[r*w:][:w]
		for p, set := range mask[r*words:][:words] {
			if all {
				set = 1<<min(64, w-64*p) - 1
			}
			for set != 0 {
				c := 64*p + bits.TrailingZeros64(set)
				set &= set - 1
				j := j0 + c
				d2 := normCacheSq(qn, norms[j], grow[c])
				below, belowCol := !(d2 >= bound), !(d2 >= bounds[j])
				if d2 < 0 {
					d2 = 0
				}
				nan := false
				if below {
					row.Offer(j, d2)
					bound = row.Bound()
					nan = math.IsNaN(bound)
				}
				if belowCol {
					collectors[j].Offer(i, d2)
					bounds[j] = collectors[j].Bound()
					nan = nan || math.IsNaN(bounds[j])
				}
				if nan && !all {
					all = true
					set = (1<<min(64, w-64*p) - 1) &^ (2<<(c-64*p) - 1) // the columns after c
				}
			}
		}
		bounds[i] = bound
	}
}

// scanTile offers one query's row of a tile's inner products to its
// collector as norm-cache squared distances. linalg.FirstBelow finds the
// entries below Collector.Bound() — a handful per tile; a NaN counts as
// below and goes on to Offer, as in an unfiltered scan — and the loop body
// runs once per such entry. ex is the tile-relative index to skip (negative
// or beyond the tile: none).
//
//drlint:hotpath inline=1
func scanTile(c *Collector, g, norms []float64, qn float64, base, ex int) {
	norms = norms[:len(g)]
	bound := c.Bound()
	for jj := 0; ; jj++ {
		jj += linalg.FirstBelow(g[jj:], norms[jj:], qn, bound)
		if jj >= len(g) {
			return
		}
		if jj == ex {
			continue
		}
		d2 := normCacheSq(qn, norms[jj], g[jj])
		if d2 < 0 {
			d2 = 0
		}
		c.Offer(base+jj, d2)
		bound = c.Bound()
	}
}

// normCacheSq is the norm-cache squared distance, in the operation order
// linalg.FirstBelow tests: the caller sees the bits the kernel saw.
func normCacheSq(qn, xn, g float64) float64 { return qn + xn - (g + g) }

// parallelQueries runs fn(i) for i in [0, n) across contiguous chunks on up
// to GOMAXPROCS goroutines (inline when only one worker is warranted).
func parallelQueries(n int, fn func(i int)) {
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
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
