package linalg

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

// FirstBelowEither is FirstBelow with a second, per-entry bound: it returns
// the smallest j with !(d2 >= bound) or !(d2 >= bounds[j]) for
// d2 = qn + norms[j] − 2·g[j], or len(g). A mirrored self-join tile uses it
// to test one product against the row's collector and the column's at once.
// norms and bounds must be at least as long as g.
//
//drlint:hotpath inline=1
func FirstBelowEither(g, norms, bounds []float64, qn, bound float64) int {
	return firstBelowEitherUnitary(g, norms[:len(g)], bounds[:len(g)], qn, bound)
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

func firstBelowEitherGeneric(g, norms, bounds []float64, qn, bound float64) int {
	norms, bounds = norms[:len(g)], bounds[:len(g)]
	for j, gv := range g {
		if d2 := qn + norms[j] - (gv + gv); !(d2 >= bound) || !(d2 >= bounds[j]) {
			return j
		}
	}
	return len(g)
}
