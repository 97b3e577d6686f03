// AVX2/FMA and AVX-512 micro-kernels of the A·Bᵀ engine (MulTInto). One
// call sweeps m rows of a past one packed panel of b and writes an m×w
// block of dst. mulTRows (kernel_amd64.go) runs mulTPanelAVX512 when the
// CPU has AVX512F and XCR0 enables opmask and ZMM state, else
// mulTPanelAVX2; the AVX2 kernel is described first.
//
// The panel bp holds eight b rows k-major: bp[8t+c] = b[j0+c][t], zero in
// the lanes c ≥ w of a ragged last panel. Lane c of an accumulator
// therefore belongs to output column j0+c, and every lane runs the chain
// that DEFINES the product,
//
//	acc = +0;  acc = fma(a[i][t], b[j][t], acc)  for t = 0 … k−1,
//
// one rounding per step, t ascending. A result depends only on its two
// rows: the 4×8 tile and the single-row remainder loop below issue the same
// chain per lane, so tile position, the m mod 4 and n mod 8 edges and how
// the caller split the rows among workers cannot change a bit — and the
// portable twin (mulTRowsChain, math.FMA) reproduces it exactly.
//
// Why 4×8: eight YMM accumulators are eight independent FMA chains, exactly
// the 2 ports × 4 cycles of latency a core needs in flight to retire two
// FMAs per cycle; per step the tile issues 2 panel loads + 4 broadcasts for
// its 8 FMAs, inside the two load ports' budget.
//
// Why 8×16 on AVX-512: a ZMM FMA does twice a YMM FMA's work at the same
// throughput (≈ 42 against ≈ 21 GFMA/s measured on one core, EXPERIMENTS.md),
// and AVX-512 has 32 vector registers. Sixteen accumulators hold the tile,
// twice the chains the ports need in flight, and the other sixteen take
// the two panel vectors and the eight broadcasts: 10 loads per 16 FMAs,
// inside the two load ports' budget. The 16-row panel costs 128·k bytes, so k is packed in slabs of 256 columns
// (32 KB, the worker's frame) and the chain crosses a slab through dst.

#include "textflag.h"

// Store masks for a ragged panel: the eight lanes starting at entry 8−w are
// all-ones exactly in the lanes c < w.
DATA mulTMask<>+0(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+8(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+16(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+24(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+32(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+40(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+48(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+56(SB)/8, $0xffffffffffffffff
DATA mulTMask<>+64(SB)/8, $0
DATA mulTMask<>+72(SB)/8, $0
DATA mulTMask<>+80(SB)/8, $0
DATA mulTMask<>+88(SB)/8, $0
DATA mulTMask<>+96(SB)/8, $0
DATA mulTMask<>+104(SB)/8, $0
DATA mulTMask<>+112(SB)/8, $0
DATA mulTMask<>+120(SB)/8, $0
GLOBL mulTMask<>(SB), RODATA|NOPTR, $128

// func mulTPanelAVX2(dst *float64, ldc int, a *float64, m, k int, bp *float64, w int)
//
// dst[i·ldc+c] = chain(a[i·k …], bp lane c) for i < m, c < w. Requires
// m ≥ 1, k ≥ 1, 1 ≤ w ≤ 8; lanes c ≥ w are computed on the panel's zero
// padding and never stored.
TEXT ·mulTPanelAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ m+24(FP), BX
	MOVQ k+32(FP), R11
	MOVQ bp+40(FP), R12
	MOVQ w+48(FP), R13
	SHLQ $3, R8               // dst row stride in bytes
	MOVQ R11, R9
	SHLQ $3, R9               // a row stride in bytes
	LEAQ (R9)(R9*2), R10      // three a rows
	LEAQ mulTMask<>(SB), AX
	MOVQ $8, CX
	SUBQ R13, CX
	VMOVDQU (AX)(CX*8), Y14   // lanes 0-3
	VMOVDQU 32(AX)(CX*8), Y15 // lanes 4-7

tile4:
	CMPQ BX, $4
	JLT  tile1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ R12, DX
	MOVQ R11, CX

step4:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (AX), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (AX)(R9*1), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD (AX)(R9*2), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VBROADCASTSD (AX)(R10*1), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ $8, AX
	ADDQ $64, DX
	DECQ CX
	JNZ  step4

	LEAQ (DI)(R8*2), AX       // dst row 2 of the tile
	CMPQ R13, $8
	JNE  store4masked
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R8*1)
	VMOVUPD Y7, 32(AX)(R8*1)
	JMP  next4

store4masked:
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)
	VMASKMOVPD Y2, Y14, (DI)(R8*1)
	VMASKMOVPD Y3, Y15, 32(DI)(R8*1)
	VMASKMOVPD Y4, Y14, (AX)
	VMASKMOVPD Y5, Y15, 32(AX)
	VMASKMOVPD Y6, Y14, (AX)(R8*1)
	VMASKMOVPD Y7, Y15, 32(AX)(R8*1)

next4:
	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	SUBQ $4, BX
	JMP  tile4

	// The m mod 4 remaining rows, one at a time: the same chain per lane,
	// two accumulators instead of eight.
tile1:
	TESTQ BX, BX
	JZ    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, AX
	MOVQ R12, DX
	MOVQ R11, CX

step1:
	VBROADCASTSD (AX), Y10
	VFMADD231PD (DX), Y10, Y0
	VFMADD231PD 32(DX), Y10, Y1
	ADDQ $8, AX
	ADDQ $64, DX
	DECQ CX
	JNZ  step1

	CMPQ R13, $8
	JNE  store1masked
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	JMP  next1

store1masked:
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)

next1:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JMP  tile1

done:
	VZEROUPPER
	RET

// func mulTPanelAVX512(dst *float64, ldc int, a *float64, lda, t0, m, k int, bp *float64, w int)
//
// The AVX-512 twin of mulTPanelAVX2 over a sixteen-row panel:
// bp[16t+c] = b[j0+c][t0+t] for t < k, zero in the lanes c ≥ w. The 8×16
// tile keeps sixteen ZMM accumulators (two per a row) in flight, and per
// step issues 2 panel loads + 8 broadcasts for its 16 FMAs. a is row-major
// with row stride lda, and the chains run over its elements t0 … t0+k−1.
// At t0 = 0 every lane starts its chain from +0; past it the lane resumes
// the chain from the value dst holds, which is how the caller runs k in
// slabs without a rounding more (a float64 store and load are exact).
// Stores and resuming loads are masked to the w real lanes (K1 lanes 0-7,
// K2 lanes 8-15), so a ragged panel never touches dst past column w.
// Requires m ≥ 1, k ≥ 1, 1 ≤ w ≤ 16.
TEXT ·mulTPanelAVX512(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ t0+32(FP), R13       // non-zero: resume the chains from dst
	MOVQ m+40(FP), BX
	MOVQ k+48(FP), R11
	MOVQ bp+56(FP), R12
	MOVQ w+64(FP), CX
	LEAQ (SI)(R13*8), SI      // element t0 of a's first row
	SHLQ $3, R8               // dst row stride in bytes
	SHLQ $3, R9               // a row stride in bytes
	LEAQ (R9)(R9*2), R10      // three a rows
	MOVL $1, AX
	SHLL CX, AX
	DECL AX                   // (1 << w) − 1: one bit per real lane
	KMOVW AX, K1              // lanes 0-7 (the low eight bits)
	SHRL $8, AX
	KMOVW AX, K2              // lanes 8-15

tile8:
	CMPQ BX, $8
	JLT  tile1
	TESTQ R13, R13
	JNZ  resume8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	JMP  sweep8

resume8:
	MOVQ DI, AX
	VMOVUPD.Z (AX), K1, Z0
	VMOVUPD.Z 64(AX), K2, Z1
	ADDQ R8, AX
	VMOVUPD.Z (AX), K1, Z2
	VMOVUPD.Z 64(AX), K2, Z3
	ADDQ R8, AX
	VMOVUPD.Z (AX), K1, Z4
	VMOVUPD.Z 64(AX), K2, Z5
	ADDQ R8, AX
	VMOVUPD.Z (AX), K1, Z6
	VMOVUPD.Z 64(AX), K2, Z7
	ADDQ R8, AX
	VMOVUPD.Z (AX), K1, Z8
	VMOVUPD.Z 64(AX), K2, Z9
	ADDQ R8, AX
	VMOVUPD.Z (AX), K1, Z10
	VMOVUPD.Z 64(AX), K2, Z11
	ADDQ R8, AX
	VMOVUPD.Z (AX), K1, Z12
	VMOVUPD.Z 64(AX), K2, Z13
	ADDQ R8, AX
	VMOVUPD.Z (AX), K1, Z14
	VMOVUPD.Z 64(AX), K2, Z15

sweep8:
	MOVQ SI, AX               // a rows 0-3 of the tile
	LEAQ (SI)(R9*4), R14      // a rows 4-7
	MOVQ R12, DX
	MOVQ R11, CX

step8:
	VMOVUPD (DX), Z16
	VMOVUPD 64(DX), Z17
	VBROADCASTSD (AX), Z18
	VFMADD231PD Z16, Z18, Z0
	VFMADD231PD Z17, Z18, Z1
	VBROADCASTSD (AX)(R9*1), Z19
	VFMADD231PD Z16, Z19, Z2
	VFMADD231PD Z17, Z19, Z3
	VBROADCASTSD (AX)(R9*2), Z20
	VFMADD231PD Z16, Z20, Z4
	VFMADD231PD Z17, Z20, Z5
	VBROADCASTSD (AX)(R10*1), Z21
	VFMADD231PD Z16, Z21, Z6
	VFMADD231PD Z17, Z21, Z7
	VBROADCASTSD (R14), Z22
	VFMADD231PD Z16, Z22, Z8
	VFMADD231PD Z17, Z22, Z9
	VBROADCASTSD (R14)(R9*1), Z23
	VFMADD231PD Z16, Z23, Z10
	VFMADD231PD Z17, Z23, Z11
	VBROADCASTSD (R14)(R9*2), Z24
	VFMADD231PD Z16, Z24, Z12
	VFMADD231PD Z17, Z24, Z13
	VBROADCASTSD (R14)(R10*1), Z25
	VFMADD231PD Z16, Z25, Z14
	VFMADD231PD Z17, Z25, Z15
	ADDQ $8, AX
	ADDQ $8, R14
	ADDQ $128, DX
	DECQ CX
	JNZ  step8

	MOVQ DI, AX
	VMOVUPD Z0, K1, (AX)
	VMOVUPD Z1, K2, 64(AX)
	ADDQ R8, AX
	VMOVUPD Z2, K1, (AX)
	VMOVUPD Z3, K2, 64(AX)
	ADDQ R8, AX
	VMOVUPD Z4, K1, (AX)
	VMOVUPD Z5, K2, 64(AX)
	ADDQ R8, AX
	VMOVUPD Z6, K1, (AX)
	VMOVUPD Z7, K2, 64(AX)
	ADDQ R8, AX
	VMOVUPD Z8, K1, (AX)
	VMOVUPD Z9, K2, 64(AX)
	ADDQ R8, AX
	VMOVUPD Z10, K1, (AX)
	VMOVUPD Z11, K2, 64(AX)
	ADDQ R8, AX
	VMOVUPD Z12, K1, (AX)
	VMOVUPD Z13, K2, 64(AX)
	ADDQ R8, AX
	VMOVUPD Z14, K1, (AX)
	VMOVUPD Z15, K2, 64(AX)

	LEAQ (DI)(R8*8), DI
	LEAQ (SI)(R9*8), SI
	SUBQ $8, BX
	JMP  tile8

	// The m mod 8 remaining rows, one at a time: the same chain per lane,
	// two accumulators instead of sixteen.
tile1:
	TESTQ BX, BX
	JZ    done512
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	TESTQ R13, R13
	JZ   sweep1
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1

sweep1:
	MOVQ SI, AX
	MOVQ R12, DX
	MOVQ R11, CX

step1z:
	VBROADCASTSD (AX), Z18
	VFMADD231PD (DX), Z18, Z0
	VFMADD231PD 64(DX), Z18, Z1
	ADDQ $8, AX
	ADDQ $128, DX
	DECQ CX
	JNZ  step1z

	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JMP  tile1

done512:
	VZEROUPPER
	RET

// func ataSyrkAVX512(acc *float64, a *float64, k, rows, j0, j1 int)
//
// AtA's rank-`rows` update of the upper triangle of the k×k accumulator acc
// by the rows of a (row-major, row stride k), for the output rows
// j0 ≤ j < j1: every entry (j, c), c ≥ j, resumes its chain from acc and
// takes one step for each row r, in order, whose leading element a[r][j]
// is not zero (NaN is not). Each step is fused — VFMADD231PD with the
// leading element broadcast as the multiplier, axpyAVX2's operand roles —
// which is ataPanel's definition where its suffix axpy on row j runs in
// assembly, k − j ≥ asmMinLen; the caller keeps j1 ≤ k − asmMinLen + 1 and
// runs axpyGeneric on the rows after (ataRowsAVX512).
//
// The tile is mulTPanelAVX512's: eight output rows by sixteen columns in
// sixteen ZMM accumulators, row tiles from j0 in steps of eight, column
// tiles from the diagonal rightwards, each resumed from and stored back to
// acc once per call. Per row of a it loads the eight leading elements and
// the sixteen suffix elements (masked to the columns below k) and issues
// the tile's sixteen steps; when a lead is zero, or lies past column k, the
// row takes its steps lead by lead and skips that lead's. Loads and stores
// of acc are masked per output row to the upper triangle (c ≥ j), to the
// columns below k and to the rows below j1, so acc is touched exactly where
// ataPanel writes. Requires rows ≥ 1 and j0 < j1 ≤ k.
TEXT ·ataSyrkAVX512(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ k+16(FP), R13
	MOVQ rows+24(FP), R11
	MOVQ j0+32(FP), BX
	MOVQ j1+40(FP), R12
	MOVQ R13, R9
	SHLQ $3, R9               // row stride of a and acc, in bytes
	VPXORQ Z27, Z27, Z27

arow:
	CMPQ BX, R12
	JGE  adone
	// K6: the leads below column k.
	MOVQ R13, CX
	SUBQ BX, CX
	MOVL $0xff, AX
	CMPQ CX, $8
	JGE  aleads
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

aleads:
	KMOVW AX, K6
	MOVQ BX, DX               // c0 = j0: the diagonal tile first

acol:
	CMPQ DX, R13
	JGE  anextrow
	// R14 = W: one bit per column of the tile below k; K1/K2 its halves.
	MOVQ R13, CX
	SUBQ DX, CX
	MOVL $0xffff, R14
	CMPQ CX, $16
	JGE  awide
	MOVL $1, R14
	SHLL CX, R14
	DECL R14

awide:
	KMOVW R14, K1
	MOVL R14, AX
	SHRL $8, AX
	KMOVW AX, K2
	// R8: &acc[j0][c0].
	MOVQ BX, R8
	IMULQ R13, R8
	ADDQ DX, R8
	LEAQ (DI)(R8*8), R8

// AMASK(U, IMM) sets K4/K5 (lanes 0-7/8-15) to the acc lanes of tile row
// U: W, less the lanes left of the diagonal when c0 = j0 (IMM = 0xffff << U),
// and none when row j0+U is at or past j1. Clobbers AX and CX.
#define AMASK(U, IMM) \
	MOVL $IMM, AX \
	MOVL $0xffff, CX \
	CMPQ DX, BX \
	CMOVLEQ AX, CX \
	ANDL R14, CX \
	MOVQ R12, AX \
	SUBQ BX, AX \
	CMPQ AX, $U \
	MOVL $0, AX \
	CMOVLLE AX, CX \
	KMOVW CX, K4 \
	SHRL $8, CX \
	KMOVW CX, K5

#define ALOAD(U, IMM, G0, G1) \
	AMASK(U, IMM) \
	VMOVUPD.Z (R8), K4, G0 \
	VMOVUPD.Z 64(R8), K5, G1 \
	ADDQ R9, R8

#define ASTORE(U, IMM, G0, G1) \
	AMASK(U, IMM) \
	VMOVUPD G0, K4, (R8) \
	VMOVUPD G1, K5, 64(R8) \
	ADDQ R9, R8

	ALOAD(0, 0xffff, Z0, Z1)
	ALOAD(1, 0xfffe, Z2, Z3)
	ALOAD(2, 0xfffc, Z4, Z5)
	ALOAD(3, 0xfff8, Z6, Z7)
	ALOAD(4, 0xfff0, Z8, Z9)
	ALOAD(5, 0xffe0, Z10, Z11)
	ALOAD(6, 0xffc0, Z12, Z13)
	ALOAD(7, 0xff80, Z14, Z15)

	MOVQ SI, R8               // row r of a
	MOVQ R11, R10

// AROW loads row r's leads and suffix (AX = &a[r][j0], Z26 the leads,
// Z16/Z17 the suffix) and leaves CX with one bit per lead that takes a step.
#define AROW \
	LEAQ (R8)(BX*8), AX \
	LEAQ (R8)(DX*8), CX \
	VMOVUPD.Z (AX), K6, Z26 \
	VCMPPD $4, Z27, Z26, K6, K3 \
	VMOVUPD.Z (CX), K1, Z16 \
	VMOVUPD.Z 64(CX), K2, Z17 \
	KMOVW K3, CX

// FSTEP is lead OFF/8's fused step on its two accumulators.
#define FSTEP(OFF, B, G0, G1) \
	VBROADCASTSD OFF(AX), B \
	VFMADD231PD Z16, B, G0 \
	VFMADD231PD Z17, B, G1

// SKIP(N, L) jumps to L when lead N takes no step.
#define SKIP(N, L) \
	BTL  $N, CX \
	JCC  L

fstep:
	AROW
	CMPL CX, $0xff
	JNE  fslow
	FSTEP(0, Z18, Z0, Z1)
	FSTEP(8, Z19, Z2, Z3)
	FSTEP(16, Z20, Z4, Z5)
	FSTEP(24, Z21, Z6, Z7)
	FSTEP(32, Z22, Z8, Z9)
	FSTEP(40, Z23, Z10, Z11)
	FSTEP(48, Z24, Z12, Z13)
	FSTEP(56, Z25, Z14, Z15)

fnext:
	ADDQ R9, R8
	DECQ R10
	JNZ  fstep
	JMP  astore

fslow:
	SKIP(0, fslow1)
	FSTEP(0, Z18, Z0, Z1)
fslow1:
	SKIP(1, fslow2)
	FSTEP(8, Z19, Z2, Z3)
fslow2:
	SKIP(2, fslow3)
	FSTEP(16, Z20, Z4, Z5)
fslow3:
	SKIP(3, fslow4)
	FSTEP(24, Z21, Z6, Z7)
fslow4:
	SKIP(4, fslow5)
	FSTEP(32, Z22, Z8, Z9)
fslow5:
	SKIP(5, fslow6)
	FSTEP(40, Z23, Z10, Z11)
fslow6:
	SKIP(6, fslow7)
	FSTEP(48, Z24, Z12, Z13)
fslow7:
	SKIP(7, fnext)
	FSTEP(56, Z25, Z14, Z15)
	JMP  fnext

astore:
	MOVQ BX, R8
	IMULQ R13, R8
	ADDQ DX, R8
	LEAQ (DI)(R8*8), R8
	ASTORE(0, 0xffff, Z0, Z1)
	ASTORE(1, 0xfffe, Z2, Z3)
	ASTORE(2, 0xfffc, Z4, Z5)
	ASTORE(3, 0xfff8, Z6, Z7)
	ASTORE(4, 0xfff0, Z8, Z9)
	ASTORE(5, 0xffe0, Z10, Z11)
	ASTORE(6, 0xffc0, Z12, Z13)
	ASTORE(7, 0xff80, Z14, Z15)
	ADDQ $16, DX
	JMP  acol

anextrow:
	ADDQ $8, BX
	JMP  arow

adone:
	VZEROUPPER
	RET
