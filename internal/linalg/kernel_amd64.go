//go:build amd64

package linalg

// Dispatch for the AVX2/FMA assembly kernels in kernel_amd64.s and
// kernel_mult_amd64.s. Detection mirrors internal/cpu: the instruction sets
// must be present (FMA, AVX, AVX2) and the OS must have enabled XMM+YMM
// state saving (OSXSAVE + XGETBV), otherwise the generic Go kernels run.
// MulTInto's AVX-512 panel kernel further needs AVX512F and the OS's
// opmask and ZMM state (XCR0 bits 5-7); the store's ZMM prefix-bound kernel
// needs AVX512F, DQ, BW and VNNI with the same state.

//go:noescape
func dotAVX2(a, b []float64) float64

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

//go:noescape
func rotAVX2(s, c float64, lo, hi []float64)

//go:noescape
func backAccumAVX2(a *float64, n, i, m int)

//go:noescape
func mixRowAVX2(dst, wt []float64, ldw int, z, eps []float64, sigma float64, scales []float64)

//go:noescape
func mulTPanelAVX2(dst *float64, ldc int, a *float64, m, k int, bp *float64, w int)

//go:noescape
func mulTPanelAVX512(dst *float64, ldc int, a *float64, lda, t0, m, k int, bp *float64, w int)

//go:noescape
func ataSyrkAVX512(acc *float64, a *float64, k, rows, j0, j1 int)

func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasFMA reports that math.FMA compiles to one hardware instruction — the
// same CPUID test the runtime applies before it intrinsifies the call — and
// selects the fused form of the product chain (fmaStep). hasAVX2FMA gates
// the assembly kernels; hasAVX512 selects MulTInto's ZMM panel kernel where
// hasAVX2FMA holds too, and hasAVX512VNNI PrefixBounds' ZMM kernel. All
// four are vars so tests can force the other paths and assert the
// implementations agree.
var hasFMA, hasAVX2FMA, hasAVX512, hasAVX512VNNI = detectFMA()

func detectFMA() (fma, avx2fma, avx512, avx512vnni bool) {
	const (
		cpuid1FMA      = 1 << 12 // CPUID.1:ECX.FMA
		cpuid1OSXSAVE  = 1 << 27 // CPUID.1:ECX.OSXSAVE
		cpuid1AVX      = 1 << 28 // CPUID.1:ECX.AVX
		cpuid7AVX2     = 1 << 5  // CPUID.7.0:EBX.AVX2
		cpuid7AVX512F  = 1 << 16 // CPUID.7.0:EBX.AVX512F
		cpuid7AVX512DQ = 1 << 17 // CPUID.7.0:EBX.AVX512DQ
		cpuid7AVX512BW = 1 << 30 // CPUID.7.0:EBX.AVX512BW
		cpuid7VNNI     = 1 << 11 // CPUID.7.0:ECX.AVX512_VNNI
	)
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 1 {
		return false, false, false, false
	}
	_, _, ecx1, _ := cpuidx(1, 0)
	fma = ecx1&cpuid1FMA != 0 && ecx1&cpuid1OSXSAVE != 0
	if !fma || ecx1&cpuid1AVX == 0 || maxID < 7 {
		return fma, false, false, false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return fma, false, false, false
	}
	_, ebx7, ecx7, _ := cpuidx(7, 0)
	avx2fma = ebx7&cpuid7AVX2 != 0
	// Opmask, upper-ZMM0-15 and ZMM16-31 state as well (XCR0 bits 5-7).
	avx512 = avx2fma && ebx7&cpuid7AVX512F != 0 && xcr0&0xE6 == 0xE6
	const vnni = cpuid7AVX512F | cpuid7AVX512DQ | cpuid7AVX512BW
	avx512vnni = avx512 && ebx7&vnni == vnni && ecx7&cpuid7VNNI != 0
	return fma, avx2fma, avx512, avx512vnni
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

// backAccum runs tred2's back-accumulation for step i (i ≥ 1): the
// assembly over the largest multiple of four columns and backAccumGeneric
// over the rest. Both round every product, sum and difference as the loop
// does on amd64, where Go does not fuse, and the columns are independent,
// so the split cannot move a bit.
func backAccum(a []float64, n, i int) {
	head := 0
	if hasAVX2FMA && i >= 4 {
		head = i &^ 3
		backAccumAVX2(&a[0], n, i, head)
	}
	backAccumGeneric(a, n, i, head)
}

// mixRowUnitary runs the assembly over the largest multiple of four
// columns and mixRowGeneric over the rest. Both round every product and sum
// as the definition does, so the split cannot move a bit.
func mixRowUnitary(dst, wt, z, eps []float64, sigma float64, scales []float64) {
	d := len(dst)
	head := 0
	if hasAVX2FMA && len(z) > 0 {
		head = d &^ 3
		mixRowAVX2(dst[:head], wt, d, z, eps, sigma, scales)
	}
	mixRowGeneric(dst[head:], wt[head:], d, z, eps[head:], sigma, scales[head:])
}

// ataRows is AtA's worker body: ataPanel's upper triangle of rows
// [lo, hi), through the ZMM syrk kernel where it runs and k ≥ asmMinLen.
func ataRows(a *Dense, acc []float64, lo, hi int) {
	if hasAVX2FMA && hasAVX512 && a.cols >= asmMinLen {
		ataRowsAVX512(a, acc, lo, hi)
		return
	}
	ataPanel(a, acc, lo, hi)
}

// ataSlab is the number of rows of a per ataSyrkAVX512 call: 340 KB of a
// at k = 166, which the core's L2 keeps while every tile of the triangle
// sweeps it, and one load and store of each accumulator per 256 row steps.
const ataSlab = 256

// ataRowsAVX512 computes ataPanel's bits slab by slab in row order: the
// syrk kernel for the output rows whose suffix axpy fuses (axpyAVX2,
// k − j ≥ asmMinLen) and ataPanel's own axpyGeneric loop for the last
// asmMinLen − 1. Each entry sees its rows in order, so neither the slabs
// nor the split move a bit.
func ataRowsAVX512(a *Dense, acc []float64, lo, hi int) {
	k := a.cols
	kf := k - (asmMinLen - 1)
	acc = acc[:k*k]
	for r0 := lo; r0 < hi; r0 += ataSlab {
		slab := a.data[r0*k : min(r0+ataSlab, hi)*k]
		rows := len(slab) / k
		ataSyrkAVX512(&acc[0], &slab[0], k, rows, 0, kf)
		for i := 0; i < rows; i++ {
			row := slab[i*k : (i+1)*k]
			for j := kf; j < k; j++ {
				if v := row[j]; v != 0 {
					axpyGeneric(v, row[j:], acc[j*k+j:(j+1)*k])
				}
			}
		}
	}
}

// mulTRows computes output rows [lo, hi) of a·bᵀ (MulTInto's worker body;
// dimensions validated, a.cols ≥ 1).
func mulTRows(dst, a, b *Dense, lo, hi int) {
	switch {
	case !hasAVX2FMA:
		mulTRowsChain(dst, a, b, lo, hi)
	case hasAVX512:
		mulTRowsAVX512(dst, a, b, lo, hi)
	default:
		mulTRowsAVX2(dst, a, b, lo, hi)
	}
}

// mulTStackCols is the widest operand whose packed 8-row panel
// mulTRowsAVX2 keeps on its own frame (18 KB), and the k-slab of
// mulTRowsAVX512's 16-row panel (32 KB); a wider operand takes the AVX2
// panel from the heap and runs the AVX-512 panel in slabs.
const mulTStackCols = 256

// mulTPanelRows is the number of b rows per packed AVX2 panel (two YMM of
// lanes); mulTPanelRows512 is the AVX-512 panel's (two ZMM).
const (
	mulTPanelRows    = 8
	mulTPanelRows512 = 16
)

// mulTRowsAVX2 packs b one 8-row panel at a time — the panel stays in L1
// while every a row of [lo, hi) sweeps past it — and never holds more than
// that one panel plus the zero row a ragged last panel pads with: 9·k
// float64 (≈12 KB at k=166), dead on return, on this frame up to
// mulTStackCols columns, so a caller that multiplies block by block
// allocates nothing per block.
//
//drlint:hotpath inline=1
func mulTRowsAVX2(dst, a, b *Dense, lo, hi int) {
	var frame [(mulTPanelRows + 1) * mulTStackCols]float64
	k, ldc := a.cols, dst.cols
	pk := mulTPanelRows * k
	scratch := frame[:]
	if need := pk + k; need > len(scratch) {
		scratch = make([]float64, need)
	}
	panel, zero := scratch[:pk], scratch[pk:pk+k]
	arows := a.data[lo*k : hi*k]
	out := dst.data[lo*ldc : hi*ldc]
	brows := b.data[:b.rows*k]
	a0, p0 := &arows[0], &panel[0]
	for len(brows) > 0 && len(out) > 0 {
		packPanel(panel, brows, zero, k, 0, k, mulTPanelRows)
		mulTPanelAVX2(&out[0], ldc, a0, hi-lo, k, p0, min(mulTPanelRows, len(brows)/k))
		if len(brows) <= pk || len(out) <= mulTPanelRows {
			break
		}
		brows, out = brows[pk:], out[mulTPanelRows:]
	}
}

// mulTRowsAVX512 is mulTRowsAVX2 at twice the panel width, k in slabs of
// mulTStackCols columns: for each slab, every 16-row panel of b is packed
// and swept past a, and the kernel resumes each output's chain where the
// previous slab left it in dst. The panel and its zero row (34 KB) are
// this frame at every operand width, so nothing is allocated.
//
//drlint:hotpath inline=1
func mulTRowsAVX512(dst, a, b *Dense, lo, hi int) {
	var frame [(mulTPanelRows512 + 1) * mulTStackCols]float64
	k, ldc := a.cols, dst.cols
	arows := a.data[lo*k : hi*k]
	out := dst.data[lo*ldc : hi*ldc]
	brows := b.data[:b.rows*k]
	zero, a0 := frame[mulTPanelRows512*mulTStackCols:], &arows[0]
	for t0 := 0; t0 < k; t0 += mulTStackCols {
		kc := min(mulTStackCols, k-t0)
		rows, cols := brows, out
		for len(rows) > 0 && len(cols) > 0 {
			w := min(mulTPanelRows512, len(rows)/k)
			// Rows 0-7 of the panel into its lanes 0-7, rows 8-15 into
			// lanes 8-15; packPanel hands back what is left of b.
			half := frame[:]
			for range 2 {
				rows = packPanel(half, rows, zero, k, t0, kc, mulTPanelRows512)
				half = frame[mulTPanelRows:]
			}
			mulTPanelAVX512(&cols[0], ldc, a0, k, t0, hi-lo, kc, &frame[0], w)
			if len(cols) <= mulTPanelRows512 {
				break
			}
			cols = cols[mulTPanelRows512:]
		}
	}
}

// packPanel writes elements [t0, t0+kc) of the first eight k-long rows of
// rows k-major into panel, stride elements per step (panel[stride·t+c] =
// row c, element t0+t), reading zero for the rows a ragged last panel
// lacks, and returns the rows after those eight. An 8-row panel is one
// call with stride 8; a 16-row panel is two, the second on rows 8-15 at
// panel[8:].
func packPanel(panel, rows, zero []float64, k, t0, kc int, stride uint) (rest []float64) {
	r0, rows := takeRow(rows, zero, k, t0, kc)
	r1, rows := takeRow(rows, zero, k, t0, kc)
	r2, rows := takeRow(rows, zero, k, t0, kc)
	r3, rows := takeRow(rows, zero, k, t0, kc)
	r4, rows := takeRow(rows, zero, k, t0, kc)
	r5, rows := takeRow(rows, zero, k, t0, kc)
	r6, rows := takeRow(rows, zero, k, t0, kc)
	r7, rows := takeRow(rows, zero, k, t0, kc)
	r1, r2, r3, r4 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)], r4[:len(r0)]
	r5, r6, r7 = r5[:len(r0)], r6[:len(r0)], r7[:len(r0)]
	for t, v := range r0 {
		if len(panel) < 8 || uint(len(panel)) < stride {
			break
		}
		panel[0], panel[1], panel[2], panel[3] = v, r1[t], r2[t], r3[t]
		panel[4], panel[5], panel[6], panel[7] = r4[t], r5[t], r6[t], r7[t]
		panel = panel[stride:]
	}
	return rows
}

// takeRow splits the next k-long row off rows and returns its elements
// [t0, t0+kc), or returns zero[:kc] when no row is left.
func takeRow(rows, zero []float64, k, t0, kc int) (row, rest []float64) {
	if len(rows) < k {
		return zero[:kc], nil
	}
	return rows[t0:][:kc], rows[k:]
}
