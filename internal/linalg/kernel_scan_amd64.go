//go:build amd64

package linalg

// Dispatch for the first-hit scan kernels in kernel_scan_amd64.s, behind the
// same hasAVX2FMA gate as the other float kernels (the bodies need AVX
// only). The assembly takes whole groups of eight lanes; the wrappers finish
// the ≤7-entry tail with the portable loop, which computes the same d2 bits,
// so the head/tail split cannot move the answer.

//go:noescape
func firstBelowAVX2(g, norms []float64, qn, bound float64) int

//go:noescape
func firstBelowEitherAVX2(g, norms, bounds []float64, qn, bound float64) int

// scanLanes is the number of entries per iteration of the assembly bodies.
const scanLanes = 8

func firstBelowUnitary(g, norms []float64, qn, bound float64) int {
	head := 0
	if hasAVX2FMA && len(g) >= scanLanes {
		head = len(g) &^ (scanLanes - 1)
		if j := firstBelowAVX2(g[:head], norms[:head], qn, bound); j < head {
			return j
		}
	}
	return head + firstBelowGeneric(g[head:], norms[head:], qn, bound)
}

func firstBelowEitherUnitary(g, norms, bounds []float64, qn, bound float64) int {
	head := 0
	if hasAVX2FMA && len(g) >= scanLanes {
		head = len(g) &^ (scanLanes - 1)
		if j := firstBelowEitherAVX2(g[:head], norms[:head], bounds[:head], qn, bound); j < head {
			return j
		}
	}
	return head + firstBelowEitherGeneric(g[head:], norms[head:], bounds[head:], qn, bound)
}
