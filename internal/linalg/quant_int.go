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
