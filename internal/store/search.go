package store

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// scanBlockRows is the granularity of the threshold-pruned sweep: a full
// block scores this many rows with the ×8 kernel into a flat buffer, a
// prefix block is one linalg.PrefixBounds call (bounds plus survivor
// mask), and a branchy pass then offers only rows below the collector's
// current bound. The 2 KB buffers and 32-byte masks are still in L1 when
// that pass reads them, even one block later, and one kernel call and
// bound load serve 256 rows.
const scanBlockRows = 256

// minSegmentRows is the smallest per-worker slice of an intra-query
// parallel scan; ranges shorter than workers·minSegmentRows clamp the
// worker count so goroutine fan-out never outweighs the scan itself
// (a 1024-row segment is ~15 µs of kernel work against ~1 µs of
// goroutine bookkeeping).
const minSegmentRows = 1024

// plan holds the per-query precomputed scan terms of the asymmetric
// decomposition: with aⱼ = q_{perm[j]} − minⱼ over the storage dimensions,
// phase 1 evaluates a2 + snorm[i] − 2·Σⱼ t̃ⱼcⱼ. The weights tⱼ = aⱼ·stepⱼ
// are further quantized to 15-bit codes u (t̃ⱼ = tmin + tstep·uⱼ), so the
// per-point work is the exact integer dot Σ uⱼcⱼ and the scan reconstructs
//
//	Σ t̃ⱼcⱼ = tmin·csum[i] + tstep·(Σ uⱼcⱼ)
//
// from the per-row code sum cached at Open. Query-side rounding replaces
// each tⱼ by t̃ⱼ within tstep/2 ≈ (max t − min t)/65534 — it perturbs
// which candidates phase 1 admits by a hair, and phase 2's exact rescore
// is what fixes the reported distances, so results stay exact whenever
// the budget admits the true neighbors (and bit-identical to exact search
// at full budget, where admission order cannot matter).
type plan struct {
	t  []float64 // aⱼ·stepⱼ, storage order
	a2 float64   // Σ aⱼ²

	u     []uint16 // Q15 codes of t: uⱼ = round((tⱼ−tmin)/tstep)
	tmin  float64
	tstep float64
	pre   linalg.PrefixQuery // the prefix lower bound's query side
	refE  float64            // E of the refine step's lower bound (refineBound)
	cutK  int                // k of the sweep's cut (refineCut); 0 turns it off

	dead []int // ascending tombstoned positions the sweep skips (SearchLive)
}

// scanScratch is the per-segment block buffer, the two prefix blocks the
// pipelined sweep alternates between, pooled so steady-state searches do
// not allocate, the part of the plan's dead list the segment has not
// walked past, and the segment's cut: the k-heap of the smallest
// estimates it has admitted and the cut refineCut takes from them.
type scanScratch struct {
	scores []float64
	marks  [2]markedBlock
	dead   []int
	top    knn.Collector
	cut    float64
}

// markedBlock is one prefix block between its two steps: rows [base, end),
// each row's prefix lower bound, and the mask of rows below the bound the
// block was marked against.
type markedBlock struct {
	base, end int
	lbs       [scanBlockRows]float64
	mask      [scanBlockRows / 64]uint64
}

// isDead reports whether row i is tombstoned. A segment probes rows in
// ascending order, so each probe drops the entries below i and the segment
// walks the dead list once, up to its last row.
func (sc *scanScratch) isDead(i int) bool {
	for len(sc.dead) > 0 && sc.dead[0] < i {
		sc.dead = sc.dead[1:]
	}
	return len(sc.dead) > 0 && sc.dead[0] == i
}

func (s *Store) getPlan(q []float64) *plan {
	p, _ := s.planPool.Get().(*plan)
	if p == nil {
		p = &plan{}
	}
	d := s.l.d
	if cap(p.t) < d {
		p.t = make([]float64, d)
		p.u = make([]uint16, d)
	}
	p.t = p.t[:d]
	p.u = p.u[:d]
	p.a2 = 0
	for j, pj := range s.perm {
		a := q[pj] - s.mins[j]
		p.t[j] = a * s.steps[j]
		p.a2 += a * a
	}
	a2P := 0.0
	for j, pj := range s.perm[:s.prefDims] {
		a := q[pj] - s.mins[j]
		a2P += a * a
	}
	p.quantizeQ15()
	// The prefix lower bound and the full estimate round differently on
	// the way to their float64 values; this margin dwarfs that rounding
	// (it is ~10⁶ ulps at the distance scale a2+snorm sets) while staying
	// ~10⁻⁹ relative — far below any distance gap that could flip a
	// pruning decision the exact arithmetic would not.
	p.pre = linalg.PrefixQuery{U: p.u[:s.prefDims], A2: a2P, Tmin: p.tmin, Tstep: p.tstep,
		Margin: 1e-9 * (p.a2 + s.snormMean + 1)}
	p.refE = p.tstep*s.csumMax + p.pre.Margin
	p.cutK = 0
	return p
}

func (s *Store) putPlan(p *plan) { s.planPool.Put(p) }

// quantizeQ15 maps the scan weights t affinely onto [0, MaxQ15]. A zero
// span (constant t, including the empty case) degenerates to tstep = 0
// with all-zero codes, which reconstructs t̃ⱼ = tmin exactly.
func (p *plan) quantizeQ15() {
	if len(p.t) == 0 {
		p.tmin, p.tstep = 0, 0
		return
	}
	tmin, tmax := p.t[0], p.t[0]
	for _, v := range p.t[1:] {
		if v < tmin {
			tmin = v
		}
		if v > tmax {
			tmax = v
		}
	}
	p.tmin = tmin
	span := tmax - tmin
	if !(span > 0) {
		p.tstep = 0
		for j := range p.u {
			p.u[j] = 0
		}
		return
	}
	p.tstep = span / linalg.MaxQ15
	inv := linalg.MaxQ15 / span
	for j, v := range p.t {
		u := int((v - tmin) * inv)
		// Round-to-nearest with an explicit clamp: FP rounding may land
		// a hair outside [0, MaxQ15].
		if f := (v - tmin) * inv; f-float64(u) >= 0.5 {
			u++
		}
		if u < 0 {
			u = 0
		} else if u > linalg.MaxQ15 {
			u = linalg.MaxQ15
		}
		p.u[j] = uint16(u)
	}
}

// combine folds an exact integer dot into the phase-1 squared-distance
// estimate for point i, clamped at zero. Every scan path — blocked ×8,
// prefix survivors, the scalar reference — funnels through this one
// expression, so they produce bit-identical floats for the same point
// (the integer dots themselves are exact and path-independent).
func (s *Store) combine(p *plan, i int, idot int64) float64 {
	d2 := p.a2 + s.scanAux[2*i] - 2*(p.tmin*s.scanAux[2*i+1]+p.tstep*float64(idot))
	if d2 < 0 {
		d2 = 0
	}
	return d2
}

// rowDotQ is the unitary integer dot of the plan's query codes against
// code row i.
func (s *Store) rowDotQ(p *plan, i int) int64 {
	row := s.codes[i*s.l.codeStride:]
	return linalg.DotQ15U8(p.u, row[:s.l.d])
}

// scoreAt returns the phase-1 estimate for point i. It is the scalar
// reference the blocked paths must match bit for bit.
func (s *Store) scoreAt(p *plan, i int) float64 {
	return s.combine(p, i, s.rowDotQ(p, i))
}

// getScratch returns a pooled segment scratch with its cut reset: no cut
// yet, and a k-heap emptied for cutK rows when the cut is on (cutK > 0).
func (s *Store) getScratch(cutK int) *scanScratch {
	sc, _ := s.scratchPool.Get().(*scanScratch)
	if sc == nil {
		sc = &scanScratch{scores: make([]float64, scanBlockRows)}
	}
	sc.cut = math.Inf(1)
	if cutK > 0 {
		sc.top.Reset(cutK)
	}
	return sc
}

// admit offers live row i, whose estimate v is below the segment's
// admission bound, to the budget collector c and, with the cut on, to the
// k-heap, tightens the cut when the k-th smallest estimate falls, and
// returns the new admission bound min(c.Bound(), cut). The cut only falls,
// and a NaN cut fails the test and never replaces it.
func (s *Store) admit(p *plan, sc *scanScratch, c *knn.Collector, i int, v float64) float64 {
	c.Offer(i, v)
	if p.cutK > 0 && sc.top.Offer(i, v) && sc.top.Full() {
		if cut := s.refineCut(p, sc.top.Bound()); cut < sc.cut {
			sc.cut = cut
		}
	}
	return min(c.Bound(), sc.cut)
}

// getCollector returns a pooled candidate collector reset to capacity
// budget; steady-state searches reuse heap backing arrays instead of
// allocating one per query.
func (s *Store) getCollector(budget int) *knn.Collector {
	c, _ := s.collPool.Get().(*knn.Collector)
	if c == nil {
		c = knn.NewCollector(budget)
	}
	c.Reset(budget)
	return c
}

func (s *Store) putCollector(c *knn.Collector) { s.collPool.Put(c) }

// parScratch is the pooled fan-out state of one scanParallel call: the
// join group and the per-segment collector list, reused across queries.
type parScratch struct {
	wg    sync.WaitGroup
	colls []*knn.Collector
}

func (s *Store) getPar() *parScratch {
	ps, _ := s.parPool.Get().(*parScratch)
	if ps == nil {
		ps = &parScratch{}
	}
	return ps
}

// scanBlockFull scores rows [base, end) with the ×8 kernel into the flat
// scratch buffer, then admits only live entries below the admission bound
// min(c.Bound(), cut). Offer admits exactly the candidates with dist <
// Bound(), so the pre-filter drops nothing the collector would keep but
// the rows at or past the cut — it keeps the heap branch out of the kernel
// loop — and a row is looked up on the dead list only once it would be
// offered.
func (s *Store) scanBlockFull(p *plan, sc *scanScratch, base, end int, c *knn.Collector) {
	// rem is the unwritten suffix of scores; keeping the block width in the
	// loop condition (len(rem) >= 8 ⇔ i+8 <= end) lets the prover drop
	// every bounds check on the blk writes. The code-row reslices stay —
	// i*stride geometry is the store's layout contract.
	scores := sc.scores[:end-base]
	stride := s.l.codeStride
	var dots [8]int64
	i := base
	rem := scores
	for ; len(rem) >= 8; i += 8 {
		//drlint:ignore bcegate code-row geometry (i*stride) is the store layout contract; one reslice check per 8 rows
		linalg.DotQ15U8x8(p.u, s.codes[i*stride:], stride, &dots)
		blk := rem[:8]
		for r := 0; r < 8; r++ {
			blk[r] = s.combine(p, i+r, dots[r])
		}
		rem = rem[8:]
	}
	for j := range rem {
		rem[j] = s.scoreAt(p, i+j)
	}
	bound := min(c.Bound(), sc.cut)
	for j, v := range scores {
		if v < bound && !sc.isDead(base+j) {
			bound = s.admit(p, sc, c, base+j, v)
		}
	}
}

// scanBlockMark is the first step of a prefix block, used once the
// admission bound is finite: linalg.PrefixBounds scores only the
// variance-leading prefix plane (a contiguous prefDims-wide copy of the
// leading codes) of rows [base, end) into an admissible lower bound per
// row on the full estimate, and marks the rows below bound. It then
// prefetches each marked row's full code row and scanAux pair, so their
// misses overlap whatever the caller runs before scanBlockResolve reads
// them. A row with lb ≥ bound would fail the admission test at any later,
// smaller bound, so the mask is a superset of the rows that can still
// pass. Dead rows are marked too: the dead list is walked in row order by
// the resolve alone.
func (s *Store) scanBlockMark(p *plan, m *markedBlock, base, end int, bound float64) {
	P := s.prefDims
	m.base, m.end = base, end
	linalg.PrefixBounds(&p.pre, s.pref8[base*P:end*P], s.snormP[base:end], s.csumP[base:end], s.csumSuf[base:end],
		bound, m.lbs[:end-base], m.mask[:])
	stride, d := s.l.codeStride, s.l.d
	for w, mw := range m.mask[:(end-base+63)/64] {
		for ; mw != 0; mw &= mw - 1 {
			i := base + w*64 + bits.TrailingZeros64(mw)
			//drlint:ignore bcegate i is a marked row of [base, end), inside the code region by the layout contract; one check per marked row
			linalg.Prefetch(s.codes[i*stride : i*stride+d])
			//drlint:ignore bcegate i is a marked row of [base, end), below Len(); one check per marked row
			linalg.PrefetchF64(s.scanAux[2*i : 2*i+2])
		}
	}
}

// scanBlockResolve is the second step: it visits m's marked rows in
// ascending order and re-tests each against the admission bound
// min(c.Bound(), cut) at that moment, which is never above the bound m was
// marked against. Survivors — live rows still below it — get the exact
// full estimate and the same admission test as the full pass, so the
// candidates admitted are exactly those of admitting every row of the
// block in order. A dead row is skipped once it survives the bound, before
// its full code row is read.
func (s *Store) scanBlockResolve(p *plan, sc *scanScratch, m *markedBlock, c *knn.Collector) (survivors int) {
	base := m.base
	lbs := m.lbs[:m.end-base]
	bound := min(c.Bound(), sc.cut)
	for w, mw := range m.mask[:(len(lbs)+63)/64] {
		for ; mw != 0; mw &= mw - 1 {
			j := w*64 + bits.TrailingZeros64(mw)
			//drlint:ignore bcegate j is a set mask bit, below len(lbs) by PrefixBounds' contract; one check per marked row
			if lbs[j] < bound && !sc.isDead(base+j) {
				survivors++
				if v := s.scoreAt(p, base+j); v < bound {
					bound = s.admit(p, sc, c, base+j, v)
				}
			}
		}
	}
	return survivors
}

// prefixHoldoffBlocks is how many blocks the sweep runs in full mode
// after a prefix block fails the payoff test before probing the prefix
// again (the admission bound tightens as the scan advances, so pruning
// that was unprofitable early can become profitable later).
const prefixHoldoffBlocks = 16

// scanSegment runs the blocked phase-1 sweep over [lo, hi) and returns
// how many rows its prefix blocks passed on to a full estimate. Once the
// admission bound min(c.Bound(), cut) is finite — the budget collector is
// full, or with the cut on, the k-heap is — it tries the prefix
// early-abandon pass, software-pipelined one block deep: it marks block b+1
// (scanBlockMark) before it resolves block b (scanBlockResolve), so the
// survivors' cold code rows, prefetched at mark time, arrive while the
// next block's prefix kernel runs. A pending block is resolved before any
// full block runs and at the end of the segment, so rows are admitted in
// ascending order and the dead list is walked once. Block b+1's mask is
// taken against a bound one block older than its resolve, and bounds only
// fall, so it is still a superset of the rows that can pass; the admitted
// candidates are those of the unpipelined sweep. The prefix pass is kept
// honest with a payoff probe: a resolved block whose survivor fraction
// exceeds ~3/8 costs more than the straight ×8 full pass, since every
// survivor pays a full-row dot on top of its prefix row, and such a block
// pushes the sweep back to full mode for prefixHoldoffBlocks before
// re-probing. The probe is also the sweep's warm-up: while the bound is
// still loose it keeps the sweep in full mode. A fixed warm-up of full
// blocks before the first probe measured no better (EXPERIMENTS.md, "The
// sweep cuts at the error radius"). The two block kinds admit identical
// candidates, so this scheduling is invisible in the results.
//
//drlint:hotpath inline=5
func (s *Store) scanSegment(p *plan, lo, hi int, c *knn.Collector) (survivors int) {
	sc := s.getScratch(p.cutK)
	sc.dead = p.dead
	usePrefix := s.prefDims > 0
	holdoff := 0
	var pending *markedBlock
	for base := lo; base < hi; base += scanBlockRows {
		end := min(base+scanBlockRows, hi)
		var next *markedBlock
		if bound := min(c.Bound(), sc.cut); usePrefix && holdoff == 0 && bound < math.Inf(1) {
			if next = &sc.marks[0]; next == pending {
				next = &sc.marks[1]
			}
			s.scanBlockMark(p, next, base, end, bound)
		}
		if pending != nil {
			surv := s.scanBlockResolve(p, sc, pending, c)
			if survivors += surv; 8*surv > 3*(pending.end-pending.base) {
				holdoff = prefixHoldoffBlocks
			}
		}
		if pending = next; next == nil {
			s.scanBlockFull(p, sc, base, end, c)
			if holdoff > 0 {
				holdoff--
			}
		}
	}
	if pending != nil {
		survivors += s.scanBlockResolve(p, sc, pending, c)
	}
	sc.dead = nil
	s.scratchPool.Put(sc)
	return survivors
}

// rescoreAhead is how many candidates ahead of its exact rescore a
// candidate's float64 row is prefetched, so the scattered rows' misses
// overlap the distances before them. On a store whose exact pages were
// dropped it is also the read-ahead window: the same row is advised to
// the kernel, so the refine step never queues a disk read more than this
// many rows past where it stops.
const rescoreAhead = 8

// rescoreSlack is δ of the refine step's stop test, lb > kth·(1+δ): the
// relative rounding of the computed distances on both sides of it. A
// distance from knn.Euclidean sums d rounded squares of rounded
// differences, all non-negative, and takes a rounded square root, so it is
// within (d+2)·2⁻⁵³ of the exact distance, relative; refineBound's square
// root and subtraction of the radius add two more 2⁻⁵³. 10⁻⁹ covers that
// for any d below 10⁶ and is far below any gap between two neighbors'
// distances that the stop could act on. The absolute rounding of the
// estimate inside the bound is the Margin's (getPlan).
const rescoreSlack = 1e-9

// refineBound is the lower bound on the exact distance from the plan's
// query to a row whose phase-1 estimate is est:
//
//	‖q − x‖ ≥ ‖q − x̂‖ − ‖x − x̂‖ ≥ √max(0, est − E) − R
//
// where x̂ is the row's dequantized codes and R the store's error radius.
// The first step is the triangle inequality. For the second, est is
// ‖q − x̂‖² − 2·Σⱼ eⱼcⱼ in exact arithmetic, eⱼ the query's Q15 rounding
// error (|eⱼ| ≤ Tstep/2, cⱼ ≥ 0): linalg.PrefixBounds' argument applied
// to all d dimensions, so ‖q − x̂‖² ≥ est − Tstep·csum ≥ est − Tstep·csumMax.
// E = Tstep·csumMax + Margin (plan.refE) adds the floating-point margin the
// prefix bound subtracts, which covers est's own rounding where it
// matters: near the query, where est cancels down from a2 + snorm ≈ 2·a2.
// Far from it est is large, and its rounding is relative and inside
// rescoreSlack. A NaN estimate gives a NaN bound, which no stop test
// accepts.
func (s *Store) refineBound(p *plan, est float64) float64 {
	return math.Sqrt(max(0, est-p.refE)) - s.radius
}

// cutSlack is the factor (1+δ)² of refineCut, δ = rescoreSlack: one
// (1+δ) is the rounding of the k-th computed distance above its bound U,
// the other the stop test's own kth·(1+δ).
const cutSlack = (1 + rescoreSlack) * (1 + rescoreSlack)

// refineCut is the sweep's cut: given ek, the k-th smallest estimate among
// k live rows a segment has seen, no row whose estimate is at or above
//
//	cut = ((U·(1+δ)² + R)² + E)·(1+δ),  U = √(ek + E) + R
//
// can be read by the refine step, so phase 1 need not keep it. refineBound
// run the other way bounds each of those k rows: ‖q − x‖ ≤ ‖q − x̂‖ + R and
// ‖q − x̂‖² ≤ est + E, so all k lie within U of the query. The refine
// step's first k candidates are the k smallest estimates of the range, all
// ≤ ek, so from t = k on its k-th computed distance is at most U·(1+δ) and
// its stop threshold kth·(1+δ) at most U·(1+δ)². An estimate at or above
// the cut has √(est − E) − R ≥ (U·(1+δ)² + R)·√(1+δ) − R, above U·(1+δ)²
// by at least (U·(1+δ)² + R)·δ/2 − ε: the last (1+δ) is the cut's
// rounding slack, and covers the relative rounding ε of the eight
// operations here and of refineBound's three on non-negative terms, a few
// 2⁻⁵³ each. Such a row's bound therefore passes the stop test, and the
// stop, monotone along the candidates, falls at or before it. The cut
// exceeds ek, so it never drops one of the k rows it was taken from. ek
// only falls as the segment advances, so the cut only tightens.
func (s *Store) refineCut(p *plan, ek float64) float64 {
	r := (math.Sqrt(ek+p.refE)+s.radius)*cutSlack + s.radius
	return (r*r + p.refE) * (1 + rescoreSlack)
}

// cutK is plan.cutK for a query of k neighbors at budget: k where the
// refine step can stop, 0 (no cut) where it reads every candidate — no
// radius, an infinite one, or a budget of at most k.
func (s *Store) cutK(k, budget int) int {
	if s.radius > 0 && !math.IsInf(s.radius, 1) && budget > k {
		return k
	}
	return 0
}

// refine is phase 2: it exactly rescores cand, which phase 1 returns
// sorted ascending by estimate, in that order, and returns the rescored
// prefix. Once k rows are rescored, with kth the k-th smallest distance
// among them, it stops before the first candidate t whose refineBound
// exceeds kth·(1+rescoreSlack). The bound never decreases along cand (est
// ascends, E and R are fixed), so every skipped row has an exact distance
// strictly above kth, which is at least the final k-th distance: k rescored
// rows already precede each skipped row in the canonical (dist, index)
// order, and the top k of the prefix is the top k of all of cand, bit for
// bit. A row that ties kth is rescored. A store without a radius rescores
// all of cand.
//
// On a store whose exact pages were dropped (DropExactPages) the rows
// fault back in from disk, one blocking round-trip each under
// MADV_RANDOM. The first rescoreAhead rows are advised to the kernel as
// asynchronous read-ahead up front, then each rescore advises the row
// rescoreAhead ahead, next to its cache prefetch, so the faults overlap
// and the read-ahead ends at most rescoreAhead rows past the stop.
// Resident stores skip the advice.
//
//drlint:hotpath inline=5
func (s *Store) refine(p *plan, q []float64, cand []knn.Neighbor, k int) []knn.Neighbor {
	stop := s.radius > 0 && len(cand) > k
	var top *knn.Collector
	if stop {
		top = s.getCollector(k)
	}
	cold := s.exactCold.Load()
	if cold {
		for _, c := range cand[:min(rescoreAhead, len(cand))] {
			s.willneedRow(c.Index)
		}
	}
	e := knn.Euclidean{}
	t := 0
	for ; t < len(cand); t++ {
		if stop && t >= k && s.refineBound(p, cand[t].Dist) > top.Bound()*(1+rescoreSlack) {
			break
		}
		if a := t + rescoreAhead; a < len(cand) {
			linalg.PrefetchF64(s.exactMat.RawRow(cand[a].Index))
			if cold {
				s.willneedRow(cand[a].Index)
			}
		}
		d := e.Distance(s.exactMat.RawRow(cand[t].Index), q)
		cand[t].Dist = d
		if stop {
			top.Offer(cand[t].Index, d)
		}
	}
	if stop {
		s.putCollector(top)
	}
	return cand[:t]
}

// willneedRow queues asynchronous read-ahead of exact row i.
func (s *Store) willneedRow(i int) {
	off := s.l.exactOff + 8*int64(i)*int64(s.l.d)
	s.mm.willneedRange(off, off+8*int64(s.l.d))
}

// Search returns the k nearest neighbors of q by two-phase search over the
// whole store: a quantized scan keeps the rescore-budget best candidates
// below the error radius's cut, and the refine step rescores them exactly
// against the float64 region in estimate order until the radius proves no
// remaining candidate can enter the top k, then re-sorts under the
// canonical (distance, index) order. rescore < k is treated as k; rescore
// ≥ Len() makes the result bit-identical to exact search: every point that
// can reach the top k is kept and exactly scored.
//
//drlint:hotpath
func (s *Store) Search(q []float64, k, rescore int) []knn.Neighbor {
	res, _ := s.SearchRangeWorkers(q, 0, s.l.n, k, rescore, 1)
	return res
}

// SearchRangeWorkers is SearchLive over every row of [lo, hi).
//
//drlint:hotpath inline=1
func (s *Store) SearchRangeWorkers(q []float64, lo, hi, k, rescore, workers int) ([]knn.Neighbor, int) {
	return s.SearchLive(q, lo, hi, k, rescore, workers, nil)
}

// SearchLive is Search restricted to the live rows of the contiguous point
// range [lo, hi) — the shard entry point of the serving layer. dead lists
// tombstoned positions in ascending order (entries outside [lo, hi) are
// ignored). The sweep skips them itself, looking a row up only once it
// would be offered or survives the prefix bound, so the rescore budget
// counts live candidates however many rows are dead; a budget of at least
// the live rows is bit-identical to exact search over them. Returned
// indices are global; the second result is the number of candidates phase 1
// kept: at most min(max(rescore, k), live rows), and fewer where the
// store's error radius cuts rows off that phase 2 could not read
// (refineCut). Phase 2 (refine) exactly rescores them in estimate order
// and stops once the radius proves the rest cannot reach the top k, so it
// refines between min(k, live) rows and all of them; Stats().Rescored
// counts the rows it refined.
//
// The phase-1 sweep splits across up to workers parallel segments
// (workers ≤ 1 scans sequentially). Each segment fills its own full-budget
// collector and keeps its own cut; the merged candidate set, truncated
// under the canonical (dist, index) order, agrees with the sequential
// scan's up to the first row either cut dropped, and the refine step stops
// at or before that row — so results are bit-identical for every worker
// count.
// Worker counts beyond what minSegmentRows-sized slices of [lo, hi) can
// occupy are clamped.
//
//drlint:hotpath inline=6
func (s *Store) SearchLive(q []float64, lo, hi, k, rescore, workers int, dead []int) ([]knn.Neighbor, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		panic("store: search on closed store")
	}
	if len(q) != s.l.d {
		panic(fmt.Sprintf("store: query has %d dims, store has %d", len(q), s.l.d))
	}
	if lo < 0 || hi > s.l.n || lo >= hi {
		panic(fmt.Sprintf("store: range [%d,%d) outside [0,%d)", lo, hi, s.l.n))
	}
	if k <= 0 {
		panic(fmt.Sprintf("store: k=%d must be positive", k))
	}
	a, _ := slices.BinarySearch(dead, lo)
	b, _ := slices.BinarySearch(dead, hi)
	dead = dead[a:b]
	live := hi - lo - len(dead)
	if live == 0 {
		return nil, 0
	}
	budget := min(max(rescore, k), live)
	workers = scanWorkers(hi-lo, workers)

	p := s.getPlan(q)
	p.dead = dead
	p.cutK = s.cutK(k, budget)
	var cand []knn.Neighbor
	if workers <= 1 {
		c := s.getCollector(budget)
		s.scanSegment(p, lo, hi, c)
		cand = c.Results()
		s.putCollector(c)
	} else {
		cand = s.scanParallel(p, lo, hi, budget, workers)
	}
	p.dead = nil
	s.scanned.Add(uint64(hi - lo))

	admitted := len(cand)
	cand = s.refine(p, q, cand, k)
	s.putPlan(p)
	s.rescored.Add(uint64(len(cand)))
	knn.SortNeighbors(cand)
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand, admitted
}

// scanWorkers clamps a requested worker count for a sweep over n rows to
// the minSegmentRows-sized slices the range can occupy and to GOMAXPROCS.
// scanParallel then cuts the range into exactly that many segments: with
// w ≤ ⌈n/minSegmentRows⌉ workers, ⌈n/w⌉·(w−1) < n.
func scanWorkers(n, workers int) int {
	return min(workers, (n+minSegmentRows-1)/minSegmentRows, runtime.GOMAXPROCS(0))
}

// scanParallel fans the sweep out over worker segments with per-segment
// collectors and merges under the canonical order. The segment collectors
// each carry the full budget: a merged-then-truncated candidate set is
// then provably the global budget-smallest set under (dist, index).
// Fan-out state (collectors, join group) is pooled, and the workers run a
// named method rather than a capturing literal, so the parallel path
// stays allocation-free apart from the goroutines themselves.
func (s *Store) scanParallel(p *plan, lo, hi, budget, workers int) []knn.Neighbor {
	seg := (hi - lo + workers - 1) / workers
	ps := s.getPar()
	if cap(ps.colls) < workers {
		ps.colls = make([]*knn.Collector, 0, workers)
	}
	for a := lo; a < hi; a += seg {
		b := a + seg
		if b > hi {
			b = hi
		}
		c := s.getCollector(budget)
		ps.colls = append(ps.colls, c)
		ps.wg.Add(1)
		go s.segmentWorker(ps, p, a, b, c)
	}
	ps.wg.Wait()
	var all []knn.Neighbor
	for _, c := range ps.colls {
		all = append(all, c.Results()...)
	}
	for i, c := range ps.colls {
		s.putCollector(c)
		ps.colls[i] = nil
	}
	ps.colls = ps.colls[:0]
	s.parPool.Put(ps)
	knn.SortNeighbors(all)
	if len(all) > budget {
		all = all[:budget]
	}
	return all
}

// segmentWorker is one goroutine of an intra-query parallel sweep.
// Done is called directly rather than deferred: scanSegment's only exits
// are normal return and index-out-of-range style programming-error
// panics that crash the process anyway, and skipping the defer keeps the
// worker frame off the hot path's allocation budget.
func (s *Store) segmentWorker(ps *parScratch, p *plan, lo, hi int, c *knn.Collector) {
	s.scanSegment(p, lo, hi, c)
	ps.wg.Done()
}

// DropExactPages hints the kernel to evict the full-precision region from
// residency (best-effort, linux only): first from this process's page
// tables (madvise MADV_DONTNEED), then from the page cache itself
// (posix_fadvise POSIX_FADV_DONTNEED) — without the second step the clean
// file pages stay cached and fault-around silently maps the whole region
// back on the next scattered rescore. Benchmarks call it between a
// ground-truth pass (which faults the whole exact region in) and the
// serving measurement, so reported RSS reflects the quantized working set
// plus only the pages phase 2 actually touches.
func (s *Store) DropExactPages() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return
	}
	lo := s.l.exactOff
	hi := lo + 8*int64(s.l.n)*int64(s.l.d)
	s.mm.dropRange(lo, hi)
	fadviseDontneed(s.path, lo, hi-lo)
	s.exactCold.Store(true)
}
