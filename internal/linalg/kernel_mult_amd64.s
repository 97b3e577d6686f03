// AVX2/FMA micro-kernel of the A·Bᵀ engine (MulTInto). One call sweeps m
// rows of a past one packed panel of b and writes an m×w block of dst.
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
