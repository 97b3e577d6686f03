// The batch-distance engine's scan kernels (scan.go has the contracts).
//
// firstBelowAVX2 takes a whole number of 8-lane groups — the Go wrapper in
// kernel_scan_amd64.go finishes the tail — and returns the index of the
// first lane whose
//
//	d2 = (qn + norms[j]) − (g[j] + g[j])
//
// fails d2 >= bound, or len(g). The three VADDPD/VSUBPD are the Go
// expression's operations in its order: two roundings, the doubling exact,
// nothing fused. Predicate $0x19 is NGE_UQ — true when not
// greater-or-equal or unordered, quiet — so a NaN lane is a hit.
//
// normCacheStripAVX512 is the self-join's strip: MulTInto's 8×16 ZMM tile
// (kernel_mult_amd64.s) with the same test against two bounds applied to
// the tile while it is still in registers.

#include "textflag.h"

// func firstBelowAVX2(g, norms []float64, qn, bound float64) int
TEXT ·firstBelowAVX2(SB), NOSPLIT, $0-72
	MOVQ g_base+0(FP), SI
	MOVQ norms_base+24(FP), DI
	MOVQ g_len+8(FP), CX
	VBROADCASTSD qn+48(FP), Y14
	VBROADCASTSD bound+56(FP), Y15
	XORQ AX, AX
	CMPQ AX, CX
	JGE  fbdone

fbloop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VADDPD  (DI)(AX*8), Y14, Y2
	VADDPD  32(DI)(AX*8), Y14, Y3
	VADDPD  Y0, Y0, Y0
	VADDPD  Y1, Y1, Y1
	VSUBPD  Y0, Y2, Y2
	VSUBPD  Y1, Y3, Y3
	VCMPPD  $0x19, Y15, Y2, Y2
	VCMPPD  $0x19, Y15, Y3, Y3
	VORPD   Y3, Y2, Y4
	VMOVMSKPD Y4, BX
	TESTL   BX, BX
	JNZ     fbhit
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     fbloop
	JMP     fbdone

fbhit:
	VMOVMSKPD Y2, BX
	VMOVMSKPD Y3, DX
	SHLL    $4, DX
	ORL     DX, BX
	BSFL    BX, BX
	ADDQ    BX, AX

fbdone:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// func normCacheStripAVX512(dst *float64, mask *uint64, a *float64, k int, bp *float64, np, w int, qn, xn, rb, cb *float64)
//
// Eight rows of a (row stride k) against np 16-row panels, bp[16k·p + 16t + c]
// = column 16p+c, element t. For each panel the sixteen accumulators run
// mulTPanelAVX512's chain — +0, then VFMADD231PD panel, broadcast a, acc
// for t ascending — so g is MulTInto's to the bit. Still in registers, each
// row r's two accumulators are stored to dst[r·w + 16p …], doubled and
// subtracted from qn[r] + xn[16p …], and the difference is compared with
// rb[r] and cb[16p …]; the two NGE_UQ masks are OR-ed, joined into sixteen
// bits (KUNPCKBW) and stored as bits 16p … 16p+15 of mask row r (row
// stride ⌈w/64⌉ words; the caller clears the words, as the kernel writes
// only the sixteen-bit parts that have panels). Lanes at or past w (the
// last panel's, when w mod 16 ≠ 0) are neither loaded from xn and cb nor
// stored to g, and their mask bits are zero (K1 for lanes 0-7, K2 for 8-15).
// Requires k ≥ 1, np = ⌈w/16⌉ ≥ 1.
TEXT ·normCacheStripAVX512(SB), NOSPLIT, $0-88
	MOVQ a+16(FP), SI
	MOVQ k+24(FP), R11
	MOVQ bp+32(FP), R12
	MOVQ np+40(FP), BX
	MOVQ w+48(FP), R8
	SHLQ $3, R8               // g row stride in bytes
	MOVQ R11, R9
	SHLQ $3, R9               // a row stride in bytes
	LEAQ (R9)(R9*2), R10      // three a rows
	XORQ R13, R13             // byte offset of the panel's first column

spanel:
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
	MOVQ SI, AX               // a rows 0-3
	LEAQ (SI)(R9*4), R14      // a rows 4-7
	MOVQ R12, DX
	MOVQ R11, CX

sstep:
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
	JNZ  sstep
	MOVQ DX, R12              // the next panel follows this one

	// Lane masks: all sixteen, or the w mod 16 of a ragged last panel.
	MOVL $0xffff, AX
	CMPQ BX, $1
	JNE  slanes
	MOVQ w+48(FP), CX
	ANDL $15, CX
	JZ   slanes
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

slanes:
	KMOVW AX, K1
	SHRL $8, AX
	KMOVW AX, K2
	MOVQ xn+64(FP), AX
	VMOVUPD.Z (AX)(R13*1), K1, Z16
	VMOVUPD.Z 64(AX)(R13*1), K2, Z17
	MOVQ cb+80(FP), AX
	VMOVUPD.Z (AX)(R13*1), K1, Z18
	VMOVUPD.Z 64(AX)(R13*1), K2, Z19
	MOVQ dst+0(FP), DI
	ADDQ R13, DI              // g row 0, this panel's first column
	MOVQ R13, DX
	SHRQ $6, DX               // 128 bytes of columns per 16 mask bits
	ADDQ mask+8(FP), DX       // mask row 0, this panel's 16 bits
	MOVQ w+48(FP), CX
	ADDQ $63, CX
	SHRQ $6, CX
	SHLQ $3, CX               // mask row stride in bytes: ⌈w/64⌉ words
	MOVQ qn+56(FP), R14
	MOVQ rb+72(FP), AX

// SROW finishes row r (byte offset OFF = 8r into qn and rb) of the tile
// held in G0 (lanes 0-7) and G1 (lanes 8-15), then steps DI and DX to the
// next row.
#define SROW(OFF, G0, G1) \
	VMOVUPD G0, K1, (DI) \
	VMOVUPD G1, K2, 64(DI) \
	VBROADCASTSD OFF(R14), Z20 \
	VBROADCASTSD OFF(AX), Z21 \
	VADDPD Z16, Z20, Z22 \
	VADDPD Z17, Z20, Z23 \
	VADDPD G0, G0, G0 \
	VADDPD G1, G1, G1 \
	VSUBPD G0, Z22, Z22 \
	VSUBPD G1, Z23, Z23 \
	VCMPPD $0x19, Z21, Z22, K1, K3 \
	VCMPPD $0x19, Z18, Z22, K1, K4 \
	VCMPPD $0x19, Z21, Z23, K2, K5 \
	VCMPPD $0x19, Z19, Z23, K2, K6 \
	KORW K3, K4, K3 \
	KORW K5, K6, K5 \
	KUNPCKBW K3, K5, K7 \
	KMOVW K7, (DX) \
	ADDQ R8, DI \
	ADDQ CX, DX

	SROW(0, Z0, Z1)
	SROW(8, Z2, Z3)
	SROW(16, Z4, Z5)
	SROW(24, Z6, Z7)
	SROW(32, Z8, Z9)
	SROW(40, Z10, Z11)
	SROW(48, Z12, Z13)
	SROW(56, Z14, Z15)

	ADDQ $128, R13
	DECQ BX
	JNZ  spanel
	VZEROUPPER
	RET
