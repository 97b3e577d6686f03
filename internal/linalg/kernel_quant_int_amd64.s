// AVX2 integer kernels for the Q15 quantized-query scan: exact int64
// dots s = Σ u[j]·c[j] of 15-bit query codes u against uint8 data codes
// c, evaluated with VPMADDWD (16-bit multiply, pairwise i32 add).
//
// Exactness argument, which is what lets the Go wrappers compose head and
// tail without a parity tolerance: VPMOVZXBW widens c to i16; each
// VPMADDWD pair sum is at most 2·32767·255 = 16 711 170, so a 32-bit lane
// can absorb 128 iterations before overflow. The unitary loop drains its
// i32 accumulator into i64 lanes every 64 iterations (1024 dims), staying
// 2× inside that bound; the ×8 body is only called with ≤ 64 iterations.
//
// Callers guarantee len(u) == len(c), len(u) ≡ 0 (mod 16), and every
// u[j] ≤ 32767; the Go dispatch wrappers handle the scalar tail.

#include "textflag.h"

// func dotQ15U8AVX2(u []uint16, c []uint8) int64
//
// 16 codes per iteration into a 32-bit accumulator, drained to two i64
// quad-lanes every 64 iterations.
TEXT ·dotQ15U8AVX2(SB), NOSPLIT, $0-56
	MOVQ u_base+0(FP), SI
	MOVQ c_base+24(FP), DI
	MOVQ u_len+8(FP), CX
	SHRQ $4, CX
	VPXOR Y1, Y1, Y1 // i64 accumulator, low half drains
	VPXOR Y2, Y2, Y2 // i64 accumulator, high half drains
	TESTQ CX, CX
	JZ    q15u8reduce

q15u8outer:
	MOVQ $64, DX
	CMPQ CX, DX
	JAE  q15u8block
	MOVQ CX, DX

q15u8block:
	SUBQ DX, CX
	VPXOR Y0, Y0, Y0 // fresh i32 accumulator for this block

q15u8inner:
	VMOVDQU (SI), Y4   // 16 query codes, i16 ≤ 32767
	VPMOVZXBW (DI), Y5 // 16 data codes widened to i16
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ DX
	JNZ  q15u8inner

	VPMOVSXDQ X0, Y4
	VPADDQ Y4, Y1, Y1
	VEXTRACTI128 $1, Y0, X0
	VPMOVSXDQ X0, Y4
	VPADDQ Y4, Y2, Y2
	TESTQ CX, CX
	JNZ   q15u8outer

q15u8reduce:
	VPADDQ Y2, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPADDQ X2, X1, X1
	VPEXTRQ $1, X1, BX
	MOVQ X1, AX
	ADDQ BX, AX
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func dotQ15U8x8AVX2(u []uint16, rows *uint8, stride int, out *[8]int64)
//
// Eight u8 rows per call — the memory-level-parallelism kernel of the
// streaming scan. Each 16-code query chunk is loaded once and VPMADDWD'd
// against all eight rows; eight independent row streams keep enough
// misses in flight to cover DRAM latency on a sequential sweep. At entry
// the kernel touches the start of each row of the *next* call's window
// (this window's rows + 8·stride), so the upcoming misses are in flight
// while the current window computes; PREFETCHT0 never faults, so the hint
// is safe even on the final window of a scan. The price of eight streams
// is register pressure: with eight i32 accumulators (Y0..Y7), the query
// chunk, and one temporary there is no room for i64 drain lanes, so the
// accumulators are widened exactly once at the end. Pair sums are ≤
// 2·32767·255, so 64 iterations — 1024 codes — stay inside i32; the Go
// wrapper routes longer inputs through eight unitary dots instead.
TEXT ·dotQ15U8x8AVX2(SB), NOSPLIT, $0-48
	MOVQ u_base+0(FP), SI
	MOVQ u_len+8(FP), CX
	MOVQ rows+24(FP), R8
	MOVQ stride+32(FP), R12
	SHRQ $4, CX
	MOVQ R8, R9
	ADDQ R12, R9
	MOVQ R9, R10
	ADDQ R12, R10
	MOVQ R10, R11
	ADDQ R12, R11
	MOVQ R11, R13
	ADDQ R12, R13
	MOVQ R13, DX
	ADDQ R12, DX
	MOVQ DX, BX
	ADDQ R12, BX
	MOVQ BX, AX
	ADDQ R12, AX

	SHLQ $3, R12 // next-window offset = 8·stride; stride not needed again
	PREFETCHT0 (R8)(R12*1)
	PREFETCHT0 (R9)(R12*1)
	PREFETCHT0 (R10)(R12*1)
	PREFETCHT0 (R11)(R12*1)
	PREFETCHT0 (R13)(R12*1)
	PREFETCHT0 (DX)(R12*1)
	PREFETCHT0 (BX)(R12*1)
	PREFETCHT0 (AX)(R12*1)
	MOVQ CX, R12 // iteration count, selects the reduce path at the end

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	TESTQ CX, CX
	JZ    q15u8x8done

q15u8x8inner:
	VMOVDQU (SI), Y8 // query chunk, shared by all eight rows
	VPMOVZXBW (R8), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y0, Y0
	VPMOVZXBW (R9), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y1, Y1
	VPMOVZXBW (R10), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y2, Y2
	VPMOVZXBW (R11), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y3, Y3
	VPMOVZXBW (R13), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y4, Y4
	VPMOVZXBW (DX), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y5, Y5
	VPMOVZXBW (BX), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y6, Y6
	VPMOVZXBW (AX), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y7, Y7
	ADDQ $32, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R13
	ADDQ $16, DX
	ADDQ $16, BX
	ADDQ $16, AX
	DECQ CX
	JNZ  q15u8x8inner

q15u8x8done:
	MOVQ out+40(FP), DI
	CMPQ R12, $16
	JA   q15u8x8wide

	// ≤ 16 iterations (256 codes): every row total fits i32 — 8 lanes of
	// at most 16 pair sums ≤ 2·32767·255 each is < 2³¹ — so a VPHADDD
	// tree collapses all eight rows in a dozen instructions. This is the
	// path the store's 64-dim prefix sweep takes, where the reduce would
	// otherwise rival the 4-iteration dot loop itself.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0 // rows 0..3, halves split across 128-bit lanes
	VPHADDD Y5, Y4, Y4
	VPHADDD Y7, Y6, Y6
	VPHADDD Y6, Y4, Y4 // rows 4..7
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0 // [row0 row1 row2 row3] as i32
	VEXTRACTI128 $1, Y4, X5
	VPADDD X5, X4, X4 // [row4 row5 row6 row7] as i32
	VPMOVSXDQ X0, Y0
	VMOVDQU Y0, (DI)
	VPMOVSXDQ X4, Y4
	VMOVDQU Y4, 32(DI)
	VZEROUPPER
	RET

q15u8x8wide:
	VPMOVSXDQ X0, Y9
	VEXTRACTI128 $1, Y0, X0
	VPMOVSXDQ X0, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, (DI)

	VPMOVSXDQ X1, Y9
	VEXTRACTI128 $1, Y1, X1
	VPMOVSXDQ X1, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, 8(DI)

	VPMOVSXDQ X2, Y9
	VEXTRACTI128 $1, Y2, X2
	VPMOVSXDQ X2, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, 16(DI)

	VPMOVSXDQ X3, Y9
	VEXTRACTI128 $1, Y3, X3
	VPMOVSXDQ X3, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, 24(DI)

	VPMOVSXDQ X4, Y9
	VEXTRACTI128 $1, Y4, X4
	VPMOVSXDQ X4, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, 32(DI)

	VPMOVSXDQ X5, Y9
	VEXTRACTI128 $1, Y5, X5
	VPMOVSXDQ X5, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, 40(DI)

	VPMOVSXDQ X6, Y9
	VEXTRACTI128 $1, Y6, X6
	VPMOVSXDQ X6, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, 48(DI)

	VPMOVSXDQ X7, Y9
	VEXTRACTI128 $1, Y7, X7
	VPMOVSXDQ X7, Y10
	VPADDQ Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ X10, X9, X9
	VPEXTRQ $1, X9, BX
	MOVQ X9, AX
	ADDQ BX, AX
	MOVQ AX, 56(DI)

	VZEROUPPER
	RET
