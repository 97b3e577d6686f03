//go:build amd64

package linalg

// Dispatch for the first-hit scan kernel in kernel_scan_amd64.s, behind the
// same hasAVX2FMA gate as the other float kernels (the body needs AVX
// only), and the declaration of the self-join's strip kernel, which
// SelfJoin.Strip runs where hasAVX512 holds too. The first-hit assembly
// takes whole groups of eight lanes; the wrapper finishes the ≤7-entry
// tail with the portable loop, which computes the same d2 bits, so the
// head/tail split cannot move the answer.

//go:noescape
func firstBelowAVX2(g, norms []float64, qn, bound float64) int

// normCacheStripAVX512 is SelfJoin.Strip's kernel: eight rows of x (row
// stride k) against the np packed panels at bp, columns [0, w).
//
//go:noescape
func normCacheStripAVX512(dst *float64, mask *uint64, a *float64, k int, bp *float64, np, w int, qn, xn, rb, cb *float64)

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

// packStripPanels packs x into SelfJoin's 16-row k-major panels, or
// returns nil where the strip kernel does not run.
func packStripPanels(x *Dense) []float64 {
	if !hasAVX2FMA || !hasAVX512 {
		return nil
	}
	k := x.cols
	np := (x.rows + stripLanes - 1) / stripLanes
	// packPanel writes a step only where a whole stride follows it, so the
	// second half of the last panel needs mulTPanelRows of slack.
	panels := make([]float64, np*stripLanes*k+mulTPanelRows)
	zero := make([]float64, k)
	rows := x.data[:x.rows*k]
	for p := 0; p < np; p++ {
		panel := panels[p*stripLanes*k:]
		rows = packPanel(panel, rows, zero, k, 0, k, stripLanes)
		rows = packPanel(panel[mulTPanelRows:], rows, zero, k, 0, k, stripLanes)
	}
	return panels
}
