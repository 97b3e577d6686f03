package linalg

import "fmt"

// The tile scan's pre-filter. The batch-distance engine turns one row g of
// an inner-product tile into norm-cache squared distances
//
//	d2[j] = qn + norms[j] − (g[j] + g[j])
//
// and on all but a handful of entries per row the only thing it does with
// d2[j] is find that it is not below the collector's admission bound. These
// kernels do that search several lanes at a time and hand back the position
// of the first entry that needs the collector, so the caller's Go loop runs
// once per admitted candidate instead of once per pair.
//
// The contract is exactness, not tolerance: d2 is the two roundings of the
// expression above in that order — the sum qn + norms[j], then the
// difference (g + g is exact, so nothing fuses and no third rounding
// exists) — and the test is the negation !(d2 >= bound), so a NaN d2 is a
// hit, as it would be in a scan that offered every entry. The AVX2 kernel
// (kernel_scan_amd64.s: VADDPD, VADDPD g g, VSUBPD, VCMPPD NGE_UQ, one
// VMOVMSKPD per eight lanes) and the portable loops below therefore return
// the same index on every input, and a caller that recomputes d2 at that
// index with the same expression sees the bits the kernel tested.

// FirstBelow returns the smallest j with !(qn + norms[j] − 2·g[j] >= bound),
// or len(g) when no entry qualifies. norms must be at least as long as g.
//
//drlint:hotpath inline=1
func FirstBelow(g, norms []float64, qn, bound float64) int {
	return firstBelowUnitary(g, norms[:len(g)], qn, bound)
}

func firstBelowGeneric(g, norms []float64, qn, bound float64) int {
	norms = norms[:len(g)]
	for j, gv := range g {
		if !(qn+norms[j]-(gv+gv) >= bound) {
			return j
		}
	}
	return len(g)
}

// The self-join's strip kernel. A self-join (every row of x against every
// other) multiplies each unordered pair once, and the pair's product serves
// the collectors of both of its rows. StripRows rows i and a run of columns
// j form a strip; for each pair the kernel writes the product chain g and
// marks it when the pair's norm-cache squared distance
//
//	d2 = (norms[i] + norms[j]) − (g + g)
//
// fails d2 >= bounds[i] or d2 >= bounds[j]: the pre-filter above, against
// the row's bound and the column's at once. The caller resolves the strip
// from the mask, recomputing d2 from g with the same expression. Because a
// collector's bound only falls (until it turns NaN), a mask taken against
// the bounds at strip start marks every pair a resolver re-testing against
// the bounds of the moment can admit.

// StripRows is the number of rows in a strip: the AVX-512 kernel's tile
// height.
const StripRows = 8

// stripLanes is the number of columns per packed panel.
const stripLanes = 16

// SelfJoin computes the products of a self-join of x, strip by strip. It
// holds x packed once — 16-row k-major panels, the layout of MulTInto's
// AVX-512 kernel — on CPUs where that kernel runs, and is only read after
// NewSelfJoin, so strips may be computed on any number of goroutines.
type SelfJoin struct {
	x      *Dense
	panels []float64 // panel P at [16k·P, 16k·(P+1)): panels[16k·P + 16t + c] = x[16P+c][t]
}

// NewSelfJoin prepares x's self-join. On the AVX-512 path it holds a packed
// copy of x (n·k float64, padded to a multiple of 16 rows) until it is
// dropped.
func NewSelfJoin(x *Dense) *SelfJoin {
	return &SelfJoin{x: x, panels: packStripPanels(x)}
}

// StripMaskWords is the number of mask words Strip writes per row of a
// strip w columns wide.
func StripMaskWords(w int) int { return (w + 63) / 64 }

// Strip computes the strip of rows [i0, i0+m) (1 ≤ m ≤ StripRows) against
// columns [j0, j0+w) of x, j0 a multiple of 16. It writes the product chain
// of rows i0+r and j0+c — MulTInto's bits — to g[r·w + c], and sets bit
// c mod 64 of mask[r·StripMaskWords(w) + c/64] iff the pair's d2 (above)
// fails d2 >= bounds[i0+r] or d2 >= bounds[j0+c]; a NaN d2 or bound
// always marks. Every other bit of the m rows' mask words is cleared.
// norms and bounds are indexed by row of x and are only read.
func (s *SelfJoin) Strip(g []float64, mask []uint64, i0, m, j0, w int, norms, bounds []float64) {
	k := s.x.cols
	np, words := (w+stripLanes-1)/stripLanes, StripMaskWords(w)
	if m < 1 || m > StripRows || w < 1 || j0%stripLanes != 0 || len(g) < m*w || len(mask) < m*words ||
		len(norms) != s.x.rows || len(bounds) != s.x.rows {
		panic(fmt.Sprintf("linalg: Strip of %d rows at column %d (width %d) into %d products and %d mask words, %d norms and %d bounds for %d rows",
			m, j0, w, len(g), len(mask), len(norms), len(bounds), s.x.rows))
	}
	g, mask = g[:m*w], mask[:m*words]
	a := s.x.data[i0*k : (i0+m)*k]
	qn, rb := norms[i0:i0+m], bounds[i0:i0+m]
	xn, cb := norms[j0:j0+w], bounds[j0:j0+w]
	if m == StripRows && s.panels != nil && hasAVX2FMA && hasAVX512 {
		// The kernel stores sixteen bits per panel into the little-endian
		// words and nothing past the last panel, so the words start clear.
		clear(mask)
		normCacheStripAVX512(&g[0], &mask[0], &a[0], k, &s.panels[j0*k], np, w, &qn[0], &xn[0], &rb[0], &cb[0])
		return
	}
	ad := Dense{rows: m, cols: k, data: a}
	bd := Dense{rows: w, cols: k, data: s.x.data[j0*k : (j0+w)*k]}
	gd := Dense{rows: m, cols: w, data: g}
	mulTRows(&gd, &ad, &bd, 0, m)
	stripMaskGeneric(g, mask, qn, xn, rb, cb)
}

// stripMaskGeneric is the kernel's mask in Go, over a strip's products g
// (len(qn) rows of len(xn)).
func stripMaskGeneric(g []float64, mask []uint64, qn, xn, rb, cb []float64) {
	w := len(xn)
	nw := StripMaskWords(w)
	clear(mask[:len(qn)*nw])
	cb = cb[:w]
	for r, q := range qn {
		grow, words := g[r*w:][:w], mask[r*nw:][:nw]
		for c, gv := range grow {
			if d2 := q + xn[c] - (gv + gv); !(d2 >= rb[r]) || !(d2 >= cb[c]) {
				words[c/64] |= 1 << (c % 64)
			}
		}
	}
}
