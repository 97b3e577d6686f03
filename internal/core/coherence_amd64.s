// AVX2 kernel of core.AnalyzeBasis's coherence pass: one data row's terms
// of P(D,e)'s three running sums, four directions per register.
//
// For each direction j it reproduces, bit for bit, the loop it replaces
// (coherenceRowGeneric):
//
//	sumsSq[j] += p·p
//	if s == 0 { skip }
//	cf := |p| / √s;  sumsCF[j] += cf
//	sumsCP[j] += erf(cf / √2)
//
// VSQRTPD and VDIVPD are correctly rounded, so they return math.Sqrt's and
// Go's / bits; every other step is one unfused multiply or add in the
// order Go evaluates the expression (Go does not fuse x·y + z on amd64).
// erf is fdlibm's as $GOROOT/src/math/erf.go writes it, for its two exp-free
// branches only: [2⁻²⁸, 0.84375), where erf z = z + z·(r/s) with r and s
// polynomials in z², and [0.84375, 1.25), where it is erx + P/Q in z − 1.
// Both branches run in every lane and a blend keeps the lane's own; r/s and
// P/Q share one VDIVPD. A lane whose z is NaN, ±Inf, below 2⁻²⁸ or at or
// above 1.25 leaves sumsCP[j] as it was and is listed in fallback: the
// caller adds the scalar erf there before the next row, so every sum still
// takes its terms in row order.

#include "textflag.h"

DATA erfConst<>+0(SB)/8, $0x7fffffffffffffff // |x| mask
DATA erfConst<>+8(SB)/8, $0x3ff6a09e667f3bcd // √2
DATA erfConst<>+16(SB)/8, $0x3e30000000000000 // 2⁻²⁸
DATA erfConst<>+24(SB)/8, $0x3feb000000000000 // 0.84375
DATA erfConst<>+32(SB)/8, $0x3ff4000000000000 // 1.25
DATA erfConst<>+40(SB)/8, $0x3ff0000000000000 // 1
DATA erfConst<>+48(SB)/8, $0x3feb0ac160000000 // erx
DATA erfConst<>+56(SB)/8, $0x3fc06eba8214db68 // pp0
DATA erfConst<>+64(SB)/8, $0xbfd4cd7d691cb913 // pp1
DATA erfConst<>+72(SB)/8, $0xbf9d2a51dbd7194f // pp2
DATA erfConst<>+80(SB)/8, $0xbf77a291236668e4 // pp3
DATA erfConst<>+88(SB)/8, $0xbef8ead6120016ac // pp4
DATA erfConst<>+96(SB)/8, $0x3fd97779cddadc09 // qq1
DATA erfConst<>+104(SB)/8, $0x3fb0a54c5536ceba // qq2
DATA erfConst<>+112(SB)/8, $0x3f74d022c4d36b0f // qq3
DATA erfConst<>+120(SB)/8, $0x3f215dc9221c1a10 // qq4
DATA erfConst<>+128(SB)/8, $0xbed09c4342a26120 // qq5
DATA erfConst<>+136(SB)/8, $0xbf6359b8bef77538 // pa0
DATA erfConst<>+144(SB)/8, $0x3fda8d00ad92b34d // pa1
DATA erfConst<>+152(SB)/8, $0xbfd7d240fbb8c3f1 // pa2
DATA erfConst<>+160(SB)/8, $0x3fd45fca805120e4 // pa3
DATA erfConst<>+168(SB)/8, $0xbfbc63983d3e28ec // pa4
DATA erfConst<>+176(SB)/8, $0x3fa22a36599795eb // pa5
DATA erfConst<>+184(SB)/8, $0xbf61bf380a96073f // pa6
DATA erfConst<>+192(SB)/8, $0x3fbb3e6618eee323 // qa1
DATA erfConst<>+200(SB)/8, $0x3fe14af092eb6f33 // qa2
DATA erfConst<>+208(SB)/8, $0x3fb2635cd99fe9a7 // qa3
DATA erfConst<>+216(SB)/8, $0x3fc02660e763351f // qa4
DATA erfConst<>+224(SB)/8, $0x3f8bedc26b51dd1c // qa5
DATA erfConst<>+232(SB)/8, $0x3f888b545735151d // qa6
GLOBL erfConst<>(SB), RODATA|NOPTR, $240

// func coherenceRowAVX2(p, s, sumsSq, sumsCF, sumsCP []float64, fallback []int32) int
//
// Requires len(p) a multiple of four, the other float slices at least as
// long and cap(fallback) ≥ len(p). Returns the number of indices written to
// fallback, ascending.
TEXT ·coherenceRowAVX2(SB), NOSPLIT, $0-152
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ s_base+24(FP), DX
	MOVQ sumsSq_base+48(FP), R8
	MOVQ sumsCF_base+72(FP), R9
	MOVQ sumsCP_base+96(FP), R10
	MOVQ fallback_base+120(FP), R11
	LEAQ erfConst<>(SB), R12
	XORQ AX, AX               // j
	XORQ BX, BX               // fallback entries written
	VXORPD Y15, Y15, Y15      // +0
	VBROADCASTSD 0(R12), Y14  // |x| mask
	VBROADCASTSD 8(R12), Y13  // √2

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y0    // p
	VMOVUPD (DX)(AX*8), Y1    // s

	// sumsSq += p·p, in every lane.
	VMULPD Y0, Y0, Y2
	VMOVUPD (R8)(AX*8), Y3
	VADDPD Y2, Y3, Y3
	VMOVUPD Y3, (R8)(AX*8)

	// Y4: the lanes that count, s ≠ 0 (NEQ_UQ: NaN counts, as in Go).
	VCMPPD $0x04, Y15, Y1, Y4

	// cf = |p| / √s, into sumsCF where it counts.
	VANDPD Y14, Y0, Y0
	VSQRTPD Y1, Y1
	VDIVPD Y1, Y0, Y2
	VMOVUPD (R9)(AX*8), Y3
	VADDPD Y2, Y3, Y5
	VBLENDVPD Y4, Y5, Y3, Y3
	VMOVUPD Y3, (R9)(AX*8)

	// z = cf / √2. Y5: 2⁻²⁸ ≤ z < 1.25, the exp-free range (false on NaN).
	// Y6: z < 0.84375, the first branch.
	VDIVPD Y13, Y2, Y2
	VBROADCASTSD 16(R12), Y6
	VCMPPD $0x1D, Y6, Y2, Y5  // GE_OQ
	VBROADCASTSD 32(R12), Y6
	VCMPPD $0x11, Y6, Y2, Y6  // LT_OQ
	VANDPD Y6, Y5, Y5
	VBROADCASTSD 24(R12), Y6
	VCMPPD $0x11, Y6, Y2, Y6

	// First branch, zz = z·z:
	// Y8 = r = pp0 + zz·(pp1 + zz·(pp2 + zz·(pp3 + zz·pp4)))
	VMULPD Y2, Y2, Y7
	VBROADCASTSD 88(R12), Y8
	VMULPD Y8, Y7, Y8
	VBROADCASTSD 80(R12), Y9
	VADDPD Y8, Y9, Y8
	VMULPD Y8, Y7, Y8
	VBROADCASTSD 72(R12), Y9
	VADDPD Y8, Y9, Y8
	VMULPD Y8, Y7, Y8
	VBROADCASTSD 64(R12), Y9
	VADDPD Y8, Y9, Y8
	VMULPD Y8, Y7, Y8
	VBROADCASTSD 56(R12), Y9
	VADDPD Y8, Y9, Y8

	// Y9 = s = 1 + zz·(qq1 + zz·(qq2 + zz·(qq3 + zz·(qq4 + zz·qq5))))
	VBROADCASTSD 128(R12), Y9
	VMULPD Y9, Y7, Y9
	VBROADCASTSD 120(R12), Y10
	VADDPD Y9, Y10, Y9
	VMULPD Y9, Y7, Y9
	VBROADCASTSD 112(R12), Y10
	VADDPD Y9, Y10, Y9
	VMULPD Y9, Y7, Y9
	VBROADCASTSD 104(R12), Y10
	VADDPD Y9, Y10, Y9
	VMULPD Y9, Y7, Y9
	VBROADCASTSD 96(R12), Y10
	VADDPD Y9, Y10, Y9
	VMULPD Y9, Y7, Y9
	VBROADCASTSD 40(R12), Y10
	VADDPD Y9, Y10, Y9

	// Second branch, Y7 = z − 1:
	// Y11 = P = pa0 + Y7·(pa1 + … Y7·(pa5 + Y7·pa6))
	VSUBPD Y10, Y2, Y7
	VBROADCASTSD 184(R12), Y11
	VMULPD Y11, Y7, Y11
	VBROADCASTSD 176(R12), Y12
	VADDPD Y11, Y12, Y11
	VMULPD Y11, Y7, Y11
	VBROADCASTSD 168(R12), Y12
	VADDPD Y11, Y12, Y11
	VMULPD Y11, Y7, Y11
	VBROADCASTSD 160(R12), Y12
	VADDPD Y11, Y12, Y11
	VMULPD Y11, Y7, Y11
	VBROADCASTSD 152(R12), Y12
	VADDPD Y11, Y12, Y11
	VMULPD Y11, Y7, Y11
	VBROADCASTSD 144(R12), Y12
	VADDPD Y11, Y12, Y11
	VMULPD Y11, Y7, Y11
	VBROADCASTSD 136(R12), Y12
	VADDPD Y11, Y12, Y11

	// Y12 = Q = 1 + Y7·(qa1 + … Y7·(qa5 + Y7·qa6))
	VBROADCASTSD 232(R12), Y12
	VMULPD Y12, Y7, Y12
	VBROADCASTSD 224(R12), Y1
	VADDPD Y12, Y1, Y12
	VMULPD Y12, Y7, Y12
	VBROADCASTSD 216(R12), Y1
	VADDPD Y12, Y1, Y12
	VMULPD Y12, Y7, Y12
	VBROADCASTSD 208(R12), Y1
	VADDPD Y12, Y1, Y12
	VMULPD Y12, Y7, Y12
	VBROADCASTSD 200(R12), Y1
	VADDPD Y12, Y1, Y12
	VMULPD Y12, Y7, Y12
	VBROADCASTSD 192(R12), Y1
	VADDPD Y12, Y1, Y12
	VMULPD Y12, Y7, Y12
	VADDPD Y12, Y10, Y12

	// Each lane's quotient, r/s or P/Q, in one division; then
	// z + z·(r/s) or erx + P/Q.
	VBLENDVPD Y6, Y8, Y11, Y8
	VBLENDVPD Y6, Y9, Y12, Y9
	VDIVPD Y9, Y8, Y8
	VMULPD Y8, Y2, Y9
	VADDPD Y9, Y2, Y9
	VBROADCASTSD 48(R12), Y10
	VADDPD Y8, Y10, Y8
	VBLENDVPD Y6, Y9, Y8, Y8

	// sumsCP += erf where z is in range. An s = 0 lane never is: |p|/±0
	// is ±Inf or NaN.
	VMOVUPD (R10)(AX*8), Y3
	VADDPD Y8, Y3, Y7
	VBLENDVPD Y5, Y7, Y3, Y3
	VMOVUPD Y3, (R10)(AX*8)

	// The lanes that count but are out of range go to the caller.
	VANDNPD Y4, Y5, Y6
	VMOVMSKPD Y6, R13
	TESTQ R13, R13
	JZ   next

list:
	BSFQ R13, R14
	ADDQ AX, R14
	MOVL R14, (R11)(BX*4)
	INCQ BX
	LEAQ -1(R13), R14
	ANDQ R14, R13
	JNZ  list

next:
	ADDQ $4, AX
	JMP  loop

done:
	MOVQ BX, ret+144(FP)
	VZEROUPPER
	RET

// func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
