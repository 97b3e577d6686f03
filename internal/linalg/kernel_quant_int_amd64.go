//go:build amd64

package linalg

// Dispatch for the integer Q15 dot kernels in kernel_quant_int_amd64.s,
// behind the same hasAVX2FMA CPUID gate as the float kernels (the bodies
// only need AVX2 integer ops, but the gate keeps one capability bit for
// the whole family). The assembly processes 16 codes per iteration; the
// wrappers run it on the aligned head and finish the ≤15-code tail in
// scalar Go. Integer sums are exact, so head+tail composition is
// bit-identical to the generic path no matter where the split lands.

//go:noescape
func dotQ15U8AVX2(u []uint16, c []uint8) int64

//go:noescape
func dotQ15U8x8AVX2(u []uint16, rows *uint8, stride int, out *[8]int64)

// q15x8MaxLen bounds the ×8 assembly body: its eight i32 accumulators
// are drained to i64 only once, at the end, which is exact for up to 64
// 16-code iterations (each i32 lane absorbs one pair sum ≤ 2·32767·255
// per iteration; 64·16711170 < 2³¹). Longer inputs run eight unitary
// dots, whose kernel drains periodically.
const q15x8MaxLen = 1024

func dotQ15U8Unitary(u []uint16, c []uint8) int64 {
	if hasAVX2FMA && len(u) >= asmMinLen {
		c = c[:len(u)] // teach the prover len(c) == len(u) for the scalar tail
		head := len(u) &^ 15
		s := dotQ15U8AVX2(u[:head], c[:head])
		for j := head; j < len(u); j++ {
			s += int64(u[j]) * int64(c[j])
		}
		return s
	}
	return dotQ15U8Generic(u, c)
}

func dotQ15U8x8Unitary(u []uint16, rows []uint8, stride int, out *[8]int64) {
	if len(u) > q15x8MaxLen {
		for r := range out {
			//drlint:ignore bcegate row geometry (r*stride) is the caller's layout contract; one reslice check per len(u)-element row
			out[r] = dotQ15U8Unitary(u, rows[r*stride:r*stride+len(u)])
		}
		return
	}
	if hasAVX2FMA && len(u) >= asmMinLen {
		head := len(u) &^ 15
		dotQ15U8x8AVX2(u[:head], &rows[0], stride, out)
		for r := 0; r < 8; r++ {
			//drlint:ignore bcegate row geometry (r*stride) is the caller's layout contract; one reslice check per ≤15-element scalar tail
			row := rows[r*stride:][:len(u)]
			var s int64
			for j := head; j < len(u); j++ {
				s += int64(u[j]) * int64(row[j])
			}
			out[r] += s
		}
		return
	}
	dotQ15U8x8Generic(u, rows, stride, out)
}

//go:noescape
func prefixBoundsAVX2(u []uint16, rows *uint8, snorm *float32, csum, csumSuf *uint32, groups int, terms *[5]float64, lbs *float64, mask *uint64)

//go:noescape
func prefixBoundsAVX512(u []uint16, rows *uint8, snorm *float32, csum, csumSuf *uint32, groups int, terms *[5]float64, lbs *float64, mask *uint64)

// q15PrefixMaxLen bounds the prefix-bound assembly, which adds each row's
// whole dot up in one i32 lane: 256·32767·255 < 2³¹.
const q15PrefixMaxLen = 256

// prefixBoundsUnitary runs whole groups of eight rows in assembly and the
// ≤7-row tail in the portable twin; all three compute the same bits. The
// ZMM kernel takes P a multiple of 32 where the CPU has AVX-512 VNNI, the
// AVX2 kernel every other multiple of 16.
func prefixBoundsUnitary(q *PrefixQuery, rows []uint8, snorm []float32, csum, csumSuf []uint32, bound float64, lbs []float64, mask []uint64) {
	head := 0
	if P := len(q.U); hasAVX2FMA && P > 0 && P%16 == 0 && P <= q15PrefixMaxLen && len(lbs) >= 8 {
		head = len(lbs) &^ 7
		terms := [5]float64{q.A2, q.Tmin, q.Tstep, q.Margin, bound}
		if hasAVX512VNNI && P%32 == 0 {
			prefixBoundsAVX512(q.U, &rows[0], &snorm[0], &csum[0], &csumSuf[0], head/8, &terms, &lbs[0], &mask[0])
		} else {
			prefixBoundsAVX2(q.U, &rows[0], &snorm[0], &csum[0], &csumSuf[0], head/8, &terms, &lbs[0], &mask[0])
		}
	}
	prefixBoundsGeneric(q, rows, snorm, csum, csumSuf, bound, lbs, mask, head)
}
