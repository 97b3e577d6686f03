//go:build !amd64

package linalg

func firstBelowUnitary(g, norms []float64, qn, bound float64) int {
	return firstBelowGeneric(g, norms, qn, bound)
}

// packStripPanels packs nothing off amd64: Strip runs its twin.
func packStripPanels(x *Dense) []float64 { return nil }

// normCacheStripAVX512 is never reached off amd64: NewSelfJoin packs no
// panels there.
func normCacheStripAVX512(dst *float64, mask *uint64, a *float64, k int, bp *float64, np, w int, qn, xn, rb, cb *float64) {
	panic("linalg: the strip kernel is amd64-only")
}
