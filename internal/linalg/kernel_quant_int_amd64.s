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
//
// The store's prefix sweep (PrefixBounds) has two kernels here with one
// contract: prefixBoundsAVX2 and its ZMM twin prefixBoundsAVX512, which
// needs AVX-512 VNNI and P a multiple of 32. Per row of a 64-code prefix,
// on one core of the reference Xeon at GOMAXPROCS 1
// (BenchmarkPrefixBounds, medians of six runs): the AVX2 kernel costs
// ≈ 4.6 ns with its block in L1 and ≈ 4.4 ns over a 250,000-row plane, so
// it is bound by its own instructions; the ZMM kernel costs ≈ 3.0 ns in L1
// and ≈ 3.3 ns over the plane, against ≈ 3.1 ns for one core only touching
// every line of the row's 76 bytes. The ZMM kernel runs at the stream.

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
	// path the store's full pass takes at d ≤ 256, where the reduce would
	// otherwise rival the ten-iteration dot loop of 166 codes itself.
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

// func prefixBoundsAVX2(u []uint16, rows *uint8, snorm *float32, csum, csumSuf *uint32, groups int, terms *[5]float64, lbs *float64, mask *uint64)
//
// The prefix sweep of the quantized store, eight rows per group (PrefixBounds
// in quant_int.go has the contract). rows is the prefix plane, stride
// P = len(u), P a multiple of 16 up to 256; terms is {A2, Tmin, Tstep,
// Margin, bound}. Per group: the ×8 dot loop with rows 0–3 and 4–7 addressed
// from two bases (R8, R9) by P and 3P, the VPHADDD tree of dotQ15U8x8AVX2's
// short path (each row total is below 2³¹, so the i32 sums and VCVTDQ2PD
// are exact), then per four rows the bound as unfused double operations in
// the portable twin's order, one 32-byte store of bounds and a VMOVMSKPD
// of the LT_OQ compare against bound; the two nibbles make one mask byte.
// The uint32 terms are widened exactly by the 2⁵² trick: zero-extend to
// 64 bits, OR in the exponent of 2⁵², subtract 2⁵². The sweep is a
// sequential stream the hardware prefetcher alone does not keep ahead of
// (four streams and survivors' scattered code rows between them), so R14
// walks the plane 4 KB ahead, two lines per 16-code step — 8P bytes per
// group, in step with the rows — and each group touches the three columns
// 64 rows ahead. PREFETCHT0 never faults, so running past the end is safe.
TEXT ·prefixBoundsAVX2(SB), NOSPLIT, $0-88
	MOVQ u_base+0(FP), SI
	MOVQ u_len+8(FP), R12 // P
	MOVQ rows+24(FP), R8
	MOVQ snorm+32(FP), R10
	MOVQ csum+40(FP), R11
	MOVQ csumSuf+48(FP), BX
	MOVQ groups+56(FP), AX
	MOVQ terms+64(FP), DX
	MOVQ mask+80(FP), DI
	VBROADCASTSD 0(DX), Y10  // A2
	VBROADCASTSD 8(DX), Y11  // Tmin
	VBROADCASTSD 16(DX), Y12 // Tstep
	VBROADCASTSD 24(DX), Y13 // Margin
	VBROADCASTSD 32(DX), Y14 // bound
	MOVQ lbs+72(FP), DX
	MOVQ $0x4330000000000000, R14 // 2⁵² as a double
	MOVQ R14, X15
	VPBROADCASTQ X15, Y15
	LEAQ (R12)(R12*2), R13 // 3P
	LEAQ (R8)(R12*4), R9   // row 4
	LEAQ 4096(R8), R14     // prefetch cursor
	TESTQ AX, AX
	JZ    pbdone

pbgroup:
	MOVQ R12, CX
	SHRQ $4, CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

pbdot:
	VMOVDQU (SI), Y8
	VPMOVZXBW (R8), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y0, Y0
	VPMOVZXBW (R8)(R12*1), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y1, Y1
	VPMOVZXBW (R8)(R12*2), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y2, Y2
	VPMOVZXBW (R8)(R13*1), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y3, Y3
	VPMOVZXBW (R9), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y4, Y4
	VPMOVZXBW (R9)(R12*1), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y5, Y5
	VPMOVZXBW (R9)(R12*2), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y6, Y6
	VPMOVZXBW (R9)(R13*1), Y9
	VPMADDWD Y8, Y9, Y9
	VPADDD Y9, Y7, Y7
	PREFETCHT0 (R14)
	PREFETCHT0 64(R14)
	ADDQ $128, R14
	ADDQ $32, SI
	ADDQ $16, R8
	ADDQ $16, R9
	DECQ CX
	JNZ  pbdot

	SUBQ R12, SI           // rewind u (2P bytes)
	SUBQ R12, SI
	LEAQ (R9)(R13*1), R8   // next group: row 4 + P + 3P = row 0 + 8P
	LEAQ (R8)(R12*4), R9

	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VPHADDD Y5, Y4, Y4
	VPHADDD Y7, Y6, Y6
	VPHADDD Y6, Y4, Y4
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0 // rows 0..3, i32
	VEXTRACTI128 $1, Y4, X5
	VPADDD X5, X4, X4 // rows 4..7
	VCVTDQ2PD X0, Y0
	VCVTDQ2PD X4, Y4

	PREFETCHT0 256(R10)
	PREFETCHT0 256(R11)
	PREFETCHT0 256(BX)
	// Rows 0..3: est = (A2 + snorm) − 2·(Tmin·csum + Tstep·dot),
	// lb = (est − Tstep·csumSuf) − Margin.
	VCVTPS2PD (R10), Y1
	VADDPD Y1, Y10, Y1
	VPMOVZXDQ (R11), Y2
	VPOR Y15, Y2, Y2
	VSUBPD Y15, Y2, Y2
	VMULPD Y11, Y2, Y2
	VMULPD Y12, Y0, Y0
	VADDPD Y0, Y2, Y2
	VADDPD Y2, Y2, Y2
	VSUBPD Y2, Y1, Y1
	VPMOVZXDQ (BX), Y3
	VPOR Y15, Y3, Y3
	VSUBPD Y15, Y3, Y3
	VMULPD Y12, Y3, Y3
	VSUBPD Y3, Y1, Y1
	VSUBPD Y13, Y1, Y1
	VMOVUPD Y1, (DX)
	VCMPPD $0x11, Y14, Y1, Y1 // LT_OQ: lb < bound, false on NaN
	VMOVMSKPD Y1, CX
	MOVB CX, (DI) // rows 0..3: the mask byte's low nibble

	// Rows 4..7, the same sequence.
	VCVTPS2PD 16(R10), Y5
	VADDPD Y5, Y10, Y5
	VPMOVZXDQ 16(R11), Y6
	VPOR Y15, Y6, Y6
	VSUBPD Y15, Y6, Y6
	VMULPD Y11, Y6, Y6
	VMULPD Y12, Y4, Y4
	VADDPD Y4, Y6, Y6
	VADDPD Y6, Y6, Y6
	VSUBPD Y6, Y5, Y5
	VPMOVZXDQ 16(BX), Y7
	VPOR Y15, Y7, Y7
	VSUBPD Y15, Y7, Y7
	VMULPD Y12, Y7, Y7
	VSUBPD Y7, Y5, Y5
	VSUBPD Y13, Y5, Y5
	VMOVUPD Y5, 32(DX)
	VCMPPD $0x11, Y14, Y5, Y5
	VMOVMSKPD Y5, CX
	SHLB $4, CX
	ORB  CX, (DI)
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, BX
	ADDQ $64, DX
	INCQ DI
	DECQ AX
	JNZ  pbgroup

pbdone:
	VZEROUPPER
	RET

// pbGather picks dword 0 of each 128-bit lane of two tables: the eight row
// totals of prefixBoundsAVX512's reduction, in row order, into the low 256
// bits. The upper eight indices are never read back.
DATA pbGather<>+0(SB)/4, $0
DATA pbGather<>+4(SB)/4, $4
DATA pbGather<>+8(SB)/4, $8
DATA pbGather<>+12(SB)/4, $12
DATA pbGather<>+16(SB)/4, $16
DATA pbGather<>+20(SB)/4, $20
DATA pbGather<>+24(SB)/4, $24
DATA pbGather<>+28(SB)/4, $28
DATA pbGather<>+32(SB)/8, $0
DATA pbGather<>+40(SB)/8, $0
DATA pbGather<>+48(SB)/8, $0
DATA pbGather<>+56(SB)/8, $0
GLOBL pbGather<>(SB), RODATA|NOPTR, $64

// func prefixBoundsAVX512(u []uint16, rows *uint8, snorm *float32, csum, csumSuf *uint32, groups int, terms *[5]float64, lbs *float64, mask *uint64)
//
// prefixBoundsAVX2 at the ZMM width, for P a multiple of 32 up to 256, on
// AVX512F/DQ/BW with VNNI. The contract, the layout and the bits are the
// AVX2 kernel's. Per 32-code step: one 64-byte load of u, then per row a
// VPMOVZXBW of 32 codes and one VPDPWSSD into the row's accumulator (Z0–Z7).
// VPDPWSSD adds each pair sum (≤ 2·32767·255) into its i32 lane unsaturated;
// the row total is below 2³¹ for P ≤ 256, so the dot is exact. A
// VSHUFI64X2/VPADDD tree folds the eight accumulators to one 128-bit lane
// per row, two VPSHUFD/VPADDD steps sum each lane, and one VPERMT2D gathers
// the eight totals. The bound then runs once for all eight rows: the dots
// by VCVTDQ2PD, snorm by VCVTPS2PD, csum and csumSuf by VCVTUDQ2PD (all
// exact), the twin's unfused VMULPD/VADDPD/VSUBPD sequence in its order,
// and one VCMPPD LT_OQ into K1, stored by KMOVB as the group's mask byte.
// Prefetch as in the AVX2 kernel: the plane 4 KB ahead, four lines per
// 32-code step (8P bytes per group), the three columns 64 rows ahead. Only
// Z0–Z15 are used, whose upper halves the closing VZEROUPPER clears, so
// no dirty ZMM state outlives the call.
TEXT ·prefixBoundsAVX512(SB), NOSPLIT, $0-88
	MOVQ u_base+0(FP), SI
	MOVQ u_len+8(FP), R12 // P
	MOVQ rows+24(FP), R8
	MOVQ snorm+32(FP), R10
	MOVQ csum+40(FP), R11
	MOVQ csumSuf+48(FP), BX
	MOVQ groups+56(FP), AX
	MOVQ terms+64(FP), DX
	MOVQ mask+80(FP), DI
	VBROADCASTSD 0(DX), Z10  // A2
	VBROADCASTSD 8(DX), Z11  // Tmin
	VBROADCASTSD 16(DX), Z12 // Tstep
	VBROADCASTSD 24(DX), Z13 // Margin
	VBROADCASTSD 32(DX), Z14 // bound
	VMOVDQU64 pbGather<>(SB), Z15
	MOVQ lbs+72(FP), DX
	LEAQ (R12)(R12*2), R13 // 3P
	LEAQ (R8)(R12*4), R9   // row 4
	LEAQ 4096(R8), R14     // prefetch cursor
	TESTQ AX, AX
	JZ    pbzdone

pbzgroup:
	MOVQ R12, CX
	SHRQ $5, CX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

pbzdot:
	VMOVDQU64 (SI), Z8
	VPMOVZXBW (R8), Z9
	VPDPWSSD Z8, Z9, Z0
	VPMOVZXBW (R8)(R12*1), Z9
	VPDPWSSD Z8, Z9, Z1
	VPMOVZXBW (R8)(R12*2), Z9
	VPDPWSSD Z8, Z9, Z2
	VPMOVZXBW (R8)(R13*1), Z9
	VPDPWSSD Z8, Z9, Z3
	VPMOVZXBW (R9), Z9
	VPDPWSSD Z8, Z9, Z4
	VPMOVZXBW (R9)(R12*1), Z9
	VPDPWSSD Z8, Z9, Z5
	VPMOVZXBW (R9)(R12*2), Z9
	VPDPWSSD Z8, Z9, Z6
	VPMOVZXBW (R9)(R13*1), Z9
	VPDPWSSD Z8, Z9, Z7
	PREFETCHT0 (R14)
	PREFETCHT0 64(R14)
	PREFETCHT0 128(R14)
	PREFETCHT0 192(R14)
	ADDQ $256, R14
	ADDQ $64, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  pbzdot

	SUBQ R12, SI           // rewind u (2P bytes)
	SUBQ R12, SI
	LEAQ (R9)(R13*1), R8   // next group: row 4 + P + 3P = row 0 + 8P
	LEAQ (R8)(R12*4), R9

	// Rows in pairs: lanes 0–1 of one row plus its lanes 2–3, both rows in
	// one register (the first in lanes 0–1, the second in lanes 2–3).
	VSHUFI64X2 $0x44, Z1, Z0, Z8
	VSHUFI64X2 $0xEE, Z1, Z0, Z9
	VPADDD Z9, Z8, Z0
	VSHUFI64X2 $0x44, Z3, Z2, Z8
	VSHUFI64X2 $0xEE, Z3, Z2, Z9
	VPADDD Z9, Z8, Z2
	VSHUFI64X2 $0x44, Z5, Z4, Z8
	VSHUFI64X2 $0xEE, Z5, Z4, Z9
	VPADDD Z9, Z8, Z4
	VSHUFI64X2 $0x44, Z7, Z6, Z8
	VSHUFI64X2 $0xEE, Z7, Z6, Z9
	VPADDD Z9, Z8, Z6
	// Pairs in pairs: lane i of Z0 holds row i's four partial sums, lane i
	// of Z4 row 4+i's.
	VSHUFI64X2 $0x88, Z2, Z0, Z8
	VSHUFI64X2 $0xDD, Z2, Z0, Z9
	VPADDD Z9, Z8, Z0
	VSHUFI64X2 $0x88, Z6, Z4, Z8
	VSHUFI64X2 $0xDD, Z6, Z4, Z9
	VPADDD Z9, Z8, Z4
	// Within each lane: every dword becomes the row's total.
	VPSHUFD $0x4E, Z0, Z8
	VPADDD Z8, Z0, Z0
	VPSHUFD $0x4E, Z4, Z9
	VPADDD Z9, Z4, Z4
	VPSHUFD $0xB1, Z0, Z8
	VPADDD Z8, Z0, Z0
	VPSHUFD $0xB1, Z4, Z9
	VPADDD Z9, Z4, Z4
	VPERMT2D Z4, Z15, Z0 // rows 0..7 in dwords 0..7
	VCVTDQ2PD Y0, Z0

	PREFETCHT0 256(R10)
	PREFETCHT0 256(R11)
	PREFETCHT0 256(BX)
	// est = (A2 + snorm) − 2·(Tmin·csum + Tstep·dot),
	// lb = (est − Tstep·csumSuf) − Margin.
	VCVTPS2PD (R10), Z1
	VADDPD Z1, Z10, Z1
	VCVTUDQ2PD (R11), Z2
	VMULPD Z11, Z2, Z2
	VMULPD Z12, Z0, Z0
	VADDPD Z0, Z2, Z2
	VADDPD Z2, Z2, Z2
	VSUBPD Z2, Z1, Z1
	VCVTUDQ2PD (BX), Z3
	VMULPD Z12, Z3, Z3
	VSUBPD Z3, Z1, Z1
	VSUBPD Z13, Z1, Z1
	VMOVUPD Z1, (DX)
	VCMPPD $0x11, Z14, Z1, K1 // LT_OQ: lb < bound, false on NaN
	KMOVB K1, (DI)
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, BX
	ADDQ $64, DX
	INCQ DI
	DECQ AX
	JNZ  pbzgroup

pbzdone:
	VZEROUPPER
	RET
