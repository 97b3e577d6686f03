//go:build amd64

package linalg

// Dispatch for the AVX2/FMA assembly kernels in kernel_amd64.s and
// kernel_mult_amd64.s. Detection mirrors internal/cpu: the instruction sets
// must be present (FMA, AVX, AVX2) and the OS must have enabled XMM+YMM
// state saving (OSXSAVE + XGETBV), otherwise the generic Go kernels run.

//go:noescape
func dotAVX2(a, b []float64) float64

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

//go:noescape
func rotAVX2(s, c float64, lo, hi []float64)

//go:noescape
func mulTPanelAVX2(dst *float64, ldc int, a *float64, m, k int, bp *float64, w int)

func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasFMA reports that math.FMA compiles to one hardware instruction — the
// same CPUID test the runtime applies before it intrinsifies the call — and
// selects the fused form of the product chain (fmaStep). hasAVX2FMA gates
// the assembly kernels. Both are vars so tests can force the portable paths
// and assert the implementations agree.
var hasFMA, hasAVX2FMA = detectFMA()

func detectFMA() (fma, avx2fma bool) {
	const (
		cpuid1FMA     = 1 << 12 // CPUID.1:ECX.FMA
		cpuid1OSXSAVE = 1 << 27 // CPUID.1:ECX.OSXSAVE
		cpuid1AVX     = 1 << 28 // CPUID.1:ECX.AVX
		cpuid7AVX2    = 1 << 5  // CPUID.7.0:EBX.AVX2
	)
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 1 {
		return false, false
	}
	_, _, ecx1, _ := cpuidx(1, 0)
	fma = ecx1&cpuid1FMA != 0 && ecx1&cpuid1OSXSAVE != 0
	if !fma || ecx1&cpuid1AVX == 0 || maxID < 7 {
		return fma, false
	}
	if eax, _ := xgetbv0(); eax&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return fma, false
	}
	_, ebx7, _, _ := cpuidx(7, 0)
	return fma, ebx7&cpuid7AVX2 != 0
}

// asmMinLen is the vector length below which the call + VZEROUPPER overhead
// of the assembly kernels beats their SIMD win.
const asmMinLen = 16

func dotUnitary(a, b []float64) float64 {
	if hasAVX2FMA && len(a) >= asmMinLen {
		return dotAVX2(a, b)
	}
	return dotGeneric(a, b)
}

func axpyUnitary(alpha float64, x, y []float64) {
	if hasAVX2FMA && len(x) >= asmMinLen {
		axpyAVX2(alpha, x, y)
		return
	}
	axpyGeneric(alpha, x, y)
}

// axpy4Unitary is axpyUnitary(a0, x0, y) … axpyUnitary(a3, x3, y) in that
// order, bit for bit: the assembly kernel keeps each element's four fused
// steps in row order, and below asmMinLen the four generic calls run as
// they would one by one.
func axpy4Unitary(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	if hasAVX2FMA && len(y) >= asmMinLen {
		axpy4AVX2(a0, a1, a2, a3, x0, x1, x2, x3, y)
		return
	}
	axpy4Generic(a0, a1, a2, a3, x0, x1, x2, x3, y)
}

// rotRows applies tqli's Givens rotation to two equal-length rows. The
// assembly kernel rounds every product, sum and difference exactly as
// rotGeneric does on amd64, where Go does not fuse.
func rotRows(s, c float64, lo, hi []float64) {
	if hasAVX2FMA {
		rotAVX2(s, c, lo, hi)
		return
	}
	rotGeneric(s, c, lo, hi)
}

// mulTRows computes output rows [lo, hi) of a·bᵀ (MulTInto's worker body;
// dimensions validated, a.cols ≥ 1).
func mulTRows(dst, a, b *Dense, lo, hi int) {
	if !hasAVX2FMA {
		mulTRowsChain(dst, a, b, lo, hi)
		return
	}
	// One packed panel plus the zero row a ragged last panel pads with:
	// 9·k float64 (≈12 KB at k=166), dead on return — on this frame up to
	// mulTStackCols columns, so a caller that multiplies block by block
	// allocates nothing per block.
	var frame [(mulTPanelRows + 1) * mulTStackCols]float64
	scratch := frame[:]
	if need := (mulTPanelRows + 1) * a.cols; need > len(scratch) {
		scratch = make([]float64, need)
	}
	mulTRowsAVX2(dst, a, b, lo, hi, scratch)
}

// mulTStackCols is the widest operand whose packed panel mulTRows keeps on
// its own frame (18 KB); wider ones take it from the heap.
const mulTStackCols = 256

// mulTPanelRows is the number of b rows per packed panel: two YMM of lanes.
const mulTPanelRows = 8

// mulTRowsAVX2 packs b one 8-row panel at a time — the panel stays in L1
// while every a row of [lo, hi) sweeps past it — and never holds more than
// that one panel, so the product's working memory is scratch, not a second
// copy of b.
//
//drlint:hotpath inline=1
func mulTRowsAVX2(dst, a, b *Dense, lo, hi int, scratch []float64) {
	k, ldc := a.cols, dst.cols
	pk := mulTPanelRows * k
	panel, zero := scratch[:pk], scratch[pk:pk+k]
	arows := a.data[lo*k : hi*k]
	out := dst.data[lo*ldc : hi*ldc]
	brows := b.data[:b.rows*k]
	a0, p0 := &arows[0], &panel[0]
	for len(brows) > 0 && len(out) > 0 {
		packPanel(panel, brows, zero, k)
		mulTPanelAVX2(&out[0], ldc, a0, hi-lo, k, p0, min(mulTPanelRows, len(brows)/k))
		if len(brows) <= pk || len(out) <= mulTPanelRows {
			break
		}
		brows, out = brows[pk:], out[mulTPanelRows:]
	}
}

// packPanel writes the first eight k-long rows of rows k-major into panel
// (panel[8t+c] = row c, element t), reading zero for the rows a ragged last
// panel lacks.
func packPanel(panel, rows, zero []float64, k int) {
	r0, rows := takeRow(rows, zero, k)
	r1, rows := takeRow(rows, zero, k)
	r2, rows := takeRow(rows, zero, k)
	r3, rows := takeRow(rows, zero, k)
	r4, rows := takeRow(rows, zero, k)
	r5, rows := takeRow(rows, zero, k)
	r6, rows := takeRow(rows, zero, k)
	r7, _ := takeRow(rows, zero, k)
	r1, r2, r3, r4 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)], r4[:len(r0)]
	r5, r6, r7 = r5[:len(r0)], r6[:len(r0)], r7[:len(r0)]
	for t, v := range r0 {
		if len(panel) < mulTPanelRows {
			break
		}
		panel[0], panel[1], panel[2], panel[3] = v, r1[t], r2[t], r3[t]
		panel[4], panel[5], panel[6], panel[7] = r4[t], r5[t], r6[t], r7[t]
		panel = panel[mulTPanelRows:]
	}
}

// takeRow splits the next k-long row off rows, or returns zero when none is
// left.
func takeRow(rows, zero []float64, k int) (row, rest []float64) {
	if len(rows) < k {
		return zero[:k], nil
	}
	return rows[:k], rows[k:]
}
