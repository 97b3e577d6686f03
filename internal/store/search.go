package store

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// scanBlockRows is the granularity of the threshold-pruned sweep: the ×8
// integer kernel scores this many rows into a flat buffer, then a branchy
// pass offers only entries below the collector's current bound. 256 rows
// keep the score buffer well inside L1 while amortizing the bound reloads.
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

	u      []uint16 // Q15 codes of t: uⱼ = round((tⱼ−tmin)/tstep)
	tmin   float64
	tstep  float64
	a2P    float64 // Σ aⱼ² over the early-abandon prefix dims
	margin float64 // FP slack subtracted from prefix lower bounds

	dead []int // ascending tombstoned positions the sweep skips (SearchLive)
}

// scanScratch is the per-segment block buffer, pooled so steady-state
// searches do not allocate, and the part of the plan's dead list the
// segment has not walked past.
type scanScratch struct {
	scores []float64
	dead   []int
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
	p.a2P = 0
	for j, pj := range s.perm[:s.prefDims] {
		a := q[pj] - s.mins[j]
		p.a2P += a * a
	}
	p.quantizeQ15()
	// The prefix lower bound and the full estimate round differently on
	// the way to their float64 values; this margin dwarfs that rounding
	// (it is ~10⁶ ulps at the distance scale a2+snorm sets) while staying
	// ~10⁻⁹ relative — far below any distance gap that could flip a
	// pruning decision the exact arithmetic would not.
	p.margin = 1e-9 * (p.a2 + s.snormMean + 1)
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

func (s *Store) getScratch() *scanScratch {
	sc, _ := s.scratchPool.Get().(*scanScratch)
	if sc == nil {
		sc = &scanScratch{scores: make([]float64, scanBlockRows)}
	}
	return sc
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
// scratch buffer, then offers only live entries below the collector's
// bound. Offer admits exactly the candidates with dist < Bound(), so the
// pre-filter changes nothing about the admitted set — it only keeps the
// heap branch out of the kernel loop — and a row is looked up on the dead
// list only once it would be offered.
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
	bound := c.Bound()
	for j, v := range scores {
		if v < bound && !sc.isDead(base+j) {
			c.Offer(base+j, v)
			bound = c.Bound()
		}
	}
}

// scanBlockPrefix is the early-abandon variant used once the collector is
// full: it scores only the variance-leading prefix plane (a contiguous
// prefDims-wide copy of the leading codes) and computes, per
// row, the admissible lower bound
//
//	lb(i) = prefixEst(i) − tstep·csumSuf[i] − margin
//
// on the full estimate. Writing the suffix terms as Σ (aⱼ−stepⱼcⱼ)² −
// 2eⱼcⱼ with eⱼ = t̃ⱼ−tⱼ the query-rounding error (|eⱼ| ≤ tstep/2) shows
// fullEst − prefixEst ≥ −tstep·Σ_suffix cⱼ, so any row with lb(i) ≥
// Bound() would have been rejected by Offer anyway and is skipped without
// touching its full code row; survivors get the exact full estimate and
// the same admission test as the full pass. Bound() only shrinks during a
// scan, so using a momentarily stale bound never prunes a row the naive
// loop would admit — blocked+prefix stays bit-identical to the scalar
// reference at every budget. A dead row is skipped once it survives the
// bound, before its full code row is read.
func (s *Store) scanBlockPrefix(p *plan, sc *scanScratch, base, end int, c *knn.Collector) (survivors int) {
	P := s.prefDims
	uP := p.u[:P]
	// Same rem-advance shape as scanBlockFull: the block width lives in the
	// loop condition so every lb write is bounds-check free; the prefix-row
	// reslices (i*P geometry) are the layout contract.
	lbs := sc.scores[:end-base]
	var dots [8]int64
	i := base
	rem := lbs
	for ; len(rem) >= 8; i += 8 {
		//drlint:ignore bcegate prefix-plane geometry (i*P) is the store layout contract; one reslice check per 8 rows
		linalg.DotQ15U8x8(uP, s.pref8[i*P:], P, &dots)
		blk := rem[:8]
		for r := 0; r < 8; r++ {
			blk[r] = s.prefixLB(p, i+r, dots[r])
		}
		rem = rem[8:]
	}
	for j := range rem {
		//drlint:ignore bcegate prefix-plane geometry (i*P) is the store layout contract; one reslice check per tail row
		rem[j] = s.prefixLB(p, i+j, linalg.DotQ15U8(uP, s.pref8[(i+j)*P:(i+j+1)*P]))
	}
	bound := c.Bound()
	for j, lb := range lbs {
		if lb < bound && !sc.isDead(base+j) {
			survivors++
			v := s.scoreAt(p, base+j)
			if v < bound {
				c.Offer(base+j, v)
				bound = c.Bound()
			}
		}
	}
	return survivors
}

// prefixLB folds a prefix-plane integer dot into the lower bound tested
// against the collector's admission threshold. The aux code sums are
// exact integers; snormP is stored rounded toward zero, which can only
// lower the bound — both keep it admissible.
func (s *Store) prefixLB(p *plan, i int, idot int64) float64 {
	aux := &s.prefAux[i]
	est := p.a2P + float64(aux.snormP) - 2*(p.tmin*float64(aux.csumP)+p.tstep*float64(idot))
	return est - p.tstep*float64(aux.csumSuf) - p.margin
}

// prefixHoldoffBlocks is how many blocks the sweep runs in full mode
// after a prefix block fails the payoff test before probing the prefix
// again (the admission bound tightens as the scan advances, so pruning
// that was unprofitable early can become profitable later).
const prefixHoldoffBlocks = 16

// warmupBlocks is how many leading blocks of a segment run in full mode
// even once the collector fills. The admission bound after seeing only
// budget rows is far looser than the final one, so an immediate switch
// to the prefix pass pays full price (prefix dot + survivor dot) on the
// many rows that loose bound cannot prune; a short warmup at 256 rows
// per block tightens the bound at ~33 ns/row before pruning starts.
// Pure scheduling — admitted candidates are unchanged (see scanSegment).
// At the 1M-point benchmark, 32 blocks cut the whole-scan survivor rate
// about 4× over switching as soon as the collector fills.
const warmupBlocks = 32

// scanSegment runs the blocked phase-1 sweep over [lo, hi). Once the
// collector is full it tries the prefix early-abandon pass, but keeps it
// honest with a payoff probe: a prefix block whose survivor fraction
// exceeds ~3/8 costs more (prefix dot + full unitary dot per survivor)
// than the straight ×8 full pass, so such blocks push the sweep back to
// full mode for prefixHoldoffBlocks before re-probing. The two block
// kinds admit identical candidates, so this scheduling is invisible in
// the results — it is purely a bandwidth/ALU trade.
//
//drlint:hotpath inline=2
func (s *Store) scanSegment(p *plan, lo, hi int, c *knn.Collector) {
	sc := s.getScratch()
	sc.dead = p.dead
	usePrefix := s.prefDims > 0
	holdoff := 0
	// Cap the warmup at an eighth of the segment so short segments — small
	// stores, or a large one split across many workers — still spend most
	// of their sweep in the cheaper prefix mode.
	warmRows := warmupBlocks * scanBlockRows
	if limit := (hi - lo) / 8; warmRows > limit {
		warmRows = limit
	}
	warm := lo + warmRows
	for base := lo; base < hi; base += scanBlockRows {
		end := base + scanBlockRows
		if end > hi {
			end = hi
		}
		if usePrefix && holdoff == 0 && base >= warm && c.Full() {
			if surv := s.scanBlockPrefix(p, sc, base, end, c); 8*surv > 3*(end-base) {
				holdoff = prefixHoldoffBlocks
			}
		} else {
			s.scanBlockFull(p, sc, base, end, c)
			if holdoff > 0 {
				holdoff--
			}
		}
	}
	sc.dead = nil
	s.scratchPool.Put(sc)
}

// Search returns the k nearest neighbors of q by two-phase search over the
// whole store: a quantized scan admits the rescore-budget best candidates,
// which are exactly rescored against the float64 region and re-sorted
// under the canonical (distance, index) order. rescore < k is treated as
// k; rescore ≥ Len() makes the result bit-identical to exact search (every
// point is admitted and exactly scored).
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
// indices are global; the second result is the number of candidates phase 2
// rescored.
//
// The phase-1 sweep splits across up to workers parallel segments
// (workers ≤ 1 scans sequentially). Each segment fills its own full-budget
// collector; the merged candidate set, truncated under the canonical (dist,
// index) order, equals the sequential scan's set exactly — a point survives
// iff fewer than budget points precede it in that total order, regardless
// of segmentation — so results are bit-identical for every worker count.
// Worker counts beyond what minSegmentRows-sized slices of [lo, hi) can
// occupy are clamped.
//
//drlint:hotpath inline=8
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
	if maxW := (hi - lo + minSegmentRows - 1) / minSegmentRows; workers > maxW {
		workers = maxW
	}
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}

	p := s.getPlan(q)
	p.dead = dead
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
	s.putPlan(p)
	s.scanned.Add(uint64(hi - lo))

	// After a DropExactPages, phase-2 rows fault back in from disk; with
	// the exact region mapped MADV_RANDOM each fault is a blocking disk
	// round-trip, so a cold query pays ~budget serial I/Os. Queue all
	// candidate rows as asynchronous read-ahead first — a few µs of
	// syscalls per query — so the faults below overlap. Skipped entirely
	// until the first drop: resident stores pay nothing.
	if s.exactCold.Load() {
		rowBytes := 8 * int64(s.l.d)
		for t := range cand {
			off := s.l.exactOff + int64(cand[t].Index)*rowBytes
			s.mm.willneedRange(off, off+rowBytes)
		}
	}

	e := knn.Euclidean{}
	for t := range cand {
		cand[t].Dist = e.Distance(s.exactMat.RawRow(cand[t].Index), q)
	}
	rescored := len(cand)
	s.rescored.Add(uint64(rescored))
	knn.SortNeighbors(cand)
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand, rescored
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
