package linalg

import "fmt"

// Integer quantized-code inner products: the scan kernels of the quantized
// vector store (internal/store). A data row is held as unsigned integer
// codes c with per-dimension affine scales, and the asymmetric squared
// distance to a float query decomposes as
//
//	‖q − x̂‖² = Σⱼ aⱼ² − 2·Σⱼ tⱼ·cⱼ + Σⱼ (stepⱼ·cⱼ)²
//
// with aⱼ = qⱼ − minⱼ and tⱼ = aⱼ·stepⱼ precomputed once per query, so the
// only per-point work is the dot Σ tⱼ·cⱼ over one data byte per
// dimension. Widening every code to float64 in-register makes that scan
// ALU-bound: the FMA path retires ~1 code per cycle while the memory
// stream is only 1 B/code. These kernels remove the float conversion by
// quantizing the *query* too: the per-query weights tⱼ are affinely
// mapped to 15-bit codes uⱼ ∈ [0, 32767] (Q15), and the per-point work
// becomes the exact integer dot Σ uⱼ·cⱼ evaluated with VPMADDWD — no
// int→float conversion in the hot loop, and the caller reconstructs
//
//	Σ tⱼ·cⱼ ≈ tmin·Σcⱼ + tstep·(Σ uⱼ·cⱼ)
//
// from the per-row code sum Σcⱼ (cached at store-open time next to the
// row norms). The integer dot itself is computed exactly in int64, so
// assembly and portable fallbacks agree bit for bit — parity tests demand
// exact equality, not a ulp tolerance.
//
// Why 15-bit query codes instead of the symmetric u8×u8 VPMADDUBSW form:
// VPMADDUBSW saturates its i16 pair sums (u8×u8 pairs reach 2·255·255 =
// 130050 > 32767), which would make the kernel value depend on data order
// and break exactness. With u ≤ 32767 every VPMADDWD pair sum fits i32
// exactly (at most 2·32767·255) at the same instruction count, while
// giving the query 128× finer resolution than a u8 grid, so query-side
// rounding is negligible next to the data-side quantization error the
// rescore already absorbs.

// MaxQ15 is the largest query code the integer kernels accept. Codes
// above it would be interpreted as negative i16 lanes by VPMADDWD; the
// store's query quantizer produces codes in [0, MaxQ15] by construction.
const MaxQ15 = 32767

// DotQ15U8 returns Σ u[j]·c[j] as an exact int64 for Q15 query codes u
// (each ≤ MaxQ15) against uint8 data codes c. Dispatches to an AVX2
// kernel on capable amd64 hardware; assembly and the portable fallback
// are bit-identical because the sum is exact integer arithmetic.
// Supported up to len(u) = 2²⁰ dimensions (i64 never overflows there).
//
//drlint:hotpath inline=1
func DotQ15U8(u []uint16, c []uint8) int64 {
	if len(u) != len(c) {
		panic(fmt.Sprintf("linalg: DotQ15U8 length mismatch %d vs %d", len(u), len(c)))
	}
	return dotQ15U8Unitary(u, c)
}

// DotQ15U8x8 computes eight row dots at once: out[r] = Σⱼ u[j]·rows[r·stride+j]
// for r ∈ {0..7}. The assembly body loads each 16-code query chunk once
// and applies it to all eight rows of the store's block-major code layout;
// eight independent row streams keep enough cache misses in flight for a
// DRAM-bound streaming scan to approach the machine's bandwidth. out is
// fully overwritten; results are bit-identical to eight unitary dots.
//
//drlint:hotpath inline=1
func DotQ15U8x8(u []uint16, rows []uint8, stride int, out *[8]int64) {
	if stride < len(u) {
		panic(fmt.Sprintf("linalg: DotQ15U8x8 stride %d < dim %d", stride, len(u)))
	}
	if len(rows) < 7*stride+len(u) {
		panic(fmt.Sprintf("linalg: DotQ15U8x8 rows has %d codes, need %d", len(rows), 7*stride+len(u)))
	}
	dotQ15U8x8Unitary(u, rows, stride, out)
}

// dotQ15U8Generic is the portable kernel. Four independent accumulators
// break the add-latency chain; integer addition is associative, so any
// split is bit-identical to the assembly path. Both slices advance in
// 4-wide steps with the lengths in the loop condition — the shape the
// bounds-check prover eliminates completely, where the indexed
// `u[i+3]` form leaves an IsInBounds on every line of the loop.
func dotQ15U8Generic(u []uint16, c []uint8) int64 {
	c = c[:len(u)]
	var s0, s1, s2, s3 int64
	for len(u) >= 4 && len(c) >= 4 {
		s0 += int64(u[0]) * int64(c[0])
		s1 += int64(u[1]) * int64(c[1])
		s2 += int64(u[2]) * int64(c[2])
		s3 += int64(u[3]) * int64(c[3])
		u = u[4:]
		c = c[4:]
	}
	s := (s0 + s2) + (s1 + s3)
	c = c[:len(u)]
	for i, uv := range u {
		s += int64(uv) * int64(c[i])
	}
	return s
}

func dotQ15U8x8Generic(u []uint16, rows []uint8, stride int, out *[8]int64) {
	for r := 0; r < 8; r++ {
		//drlint:ignore bcegate row geometry (r*stride) is the caller's layout contract; one reslice check per len(u)-element row
		out[r] = dotQ15U8Generic(u, rows[r*stride:r*stride+len(u)])
	}
}

// PrefixQuery is the query side of the quantized store's early-abandon
// bound (PrefixBounds): the Q15 codes of the P leading scan weights and
// the scalars the bound folds them into, with aⱼ = qⱼ − minⱼ, tⱼ =
// aⱼ·stepⱼ and tⱼ rounded to the Q15 grid t̃ⱼ = Tmin + Tstep·uⱼ.
type PrefixQuery struct {
	U           []uint16 // uⱼ, j < P
	A2          float64  // Σ_{j<P} aⱼ²
	Tmin, Tstep float64  // the grid of every uⱼ, prefix and suffix alike
	Margin      float64  // floating-point slack, subtracted last
}

// PrefixBounds writes the admissible lower bound of each row of a P-code
// prefix block, P = len(q.U), and marks the rows below bound: for the
// n = len(lbs) rows j, with dotⱼ = Σ_{i<P} q.U[i]·rows[j·P+i],
//
//	lbs[j] = A2 + snorm[j] − 2·(Tmin·csum[j] + Tstep·dotⱼ) − Tstep·csumSuf[j] − Margin
//
// rounded operation by operation in that order, each product on its own,
// and bit j of mask is set iff lbs[j] < bound. mask[:(n+63)/64] is
// overwritten; the rest of mask is untouched.
//
// The quantized store computes its phase-1 estimate of ‖q − x̂‖² as
//
//	full = a2 + snorm − 2·(Tmin·csum + Tstep·Σⱼ uⱼcⱼ)
//
// over all d dimensions. In exact arithmetic that is Σⱼ (aⱼ − stepⱼcⱼ)² −
// 2eⱼcⱼ, where eⱼ = t̃ⱼ − tⱼ is the query's Q15 rounding error, |eⱼ| ≤
// Tstep/2. The same sum over j < P is the prefix estimate, so the suffix
// adds at least −2·Σ_{j≥P} eⱼcⱼ ≥ −Tstep·csumSuf (cⱼ ≥ 0): the bound
// without Margin never exceeds the full estimate. The store passes the
// prefix's Σ (stepⱼcⱼ)² as snorm rounded toward zero, which only lowers the
// bound. What is left is floating point: both sides round a handful of
// times at the scale of a2 + snorm and of the two products, and the
// quantizer's own rounding can push |eⱼ| a few ulps past Tstep/2. The store
// sets Margin to 10⁻⁹·(a2 + mean snorm + 1), millions of ulps at that
// scale, which covers all of it; TestPrefixBoundAdmissible (internal/store) holds
// every row of every test store to lbs ≤ full, far-outlier queries included.
//
// Eight rows at a time run in assembly, the ≤ 7-row tail in the portable
// twin. On a CPU with AVX-512 VNNI (AVX512F, DQ, BW and AVX512_VNNI, with
// the OS's ZMM state), for P a multiple of 32 up to 256, a ZMM kernel runs:
// one VPDPWSSD per row and 32 codes, the bound for all eight rows in one
// register. On other AVX2 hardware, and for the other multiples of 16 up
// to 256, an AVX2 kernel runs: VPMADDWD per row and 16 codes, the bound
// four rows at a time. Either way the eight dots stay in int32 lanes (a
// whole row is at most 256·32767·255 < 2³¹, so the conversion to float64
// is exact), and the bound is the same unfused VMULPD/VADDPD/VSUBPD
// sequence as the portable twin's, so all three write the same bits. rows
// holds n rows of stride P; snorm, csum and csumSuf at least n entries
// each.
//
//drlint:hotpath inline=1
func PrefixBounds(q *PrefixQuery, rows []uint8, snorm []float32, csum, csumSuf []uint32, bound float64, lbs []float64, mask []uint64) {
	n, P := len(lbs), len(q.U)
	if len(rows) < n*P || len(snorm) < n || len(csum) < n || len(csumSuf) < n || len(mask) < (n+63)/64 {
		panic(fmt.Sprintf("linalg: PrefixBounds over %d rows of %d codes has %d codes, %d/%d/%d row terms, %d mask words",
			n, P, len(rows), len(snorm), len(csum), len(csumSuf), len(mask)))
	}
	clear(mask[:(n+63)/64])
	prefixBoundsUnitary(q, rows, snorm[:n], csum[:n], csumSuf[:n], bound, lbs, mask)
}

// bound is one row of PrefixBounds, the expression the assembly evaluates.
// The explicit conversions round each product before it is added, so no
// toolchain may fuse them into an FMA the assembly does not use.
func (q *PrefixQuery) bound(dot int64, snorm float32, csum, csumSuf uint32) float64 {
	s := float64(q.Tmin*float64(csum)) + float64(q.Tstep*float64(dot))
	est := q.A2 + float64(snorm) - float64(2*s)
	return est - float64(q.Tstep*float64(csumSuf)) - q.Margin
}

// prefixBoundsGeneric is the portable twin of PrefixBounds over rows
// [from, len(lbs)); mask bits of those rows must be clear on entry.
func prefixBoundsGeneric(q *PrefixQuery, rows []uint8, snorm []float32, csum, csumSuf []uint32, bound float64, lbs []float64, mask []uint64, from int) {
	P := len(q.U)
	snorm, csum, csumSuf = snorm[:len(lbs)], csum[:len(lbs)], csumSuf[:len(lbs)]
	for j := from; j < len(lbs); j++ {
		//drlint:ignore bcegate prefix-plane geometry (j*P) is the caller's layout contract; one reslice check per row
		lb := q.bound(dotQ15U8Unitary(q.U, rows[j*P:(j+1)*P]), snorm[j], csum[j], csumSuf[j])
		lbs[j] = lb
		if lb < bound {
			//drlint:ignore bcegate mask covers len(lbs) bits by PrefixBounds' length check; one check per row below the bound
			mask[j>>6] |= 1 << (j & 63)
		}
	}
}
