// AVX first-hit kernels for the tile scan of the batch-distance engine
// (scan.go has the contract). Both bodies take a whole number of 8-lane
// groups — the Go wrappers in kernel_scan_amd64.go finish the tail — and
// return the index of the first lane whose
//
//	d2 = (qn + norms[j]) − (g[j] + g[j])
//
// fails d2 >= bound (and, in the Either form, d2 >= bounds[j]), or len(g).
// The three VADDPD/VSUBPD are the Go expression's operations in its order:
// two roundings, the doubling exact, nothing fused. Predicate $0x19 is
// NGE_UQ — true when not greater-or-equal or unordered, quiet — so a NaN
// lane is a hit.

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

// func firstBelowEitherAVX2(g, norms, bounds []float64, qn, bound float64) int
TEXT ·firstBelowEitherAVX2(SB), NOSPLIT, $0-96
	MOVQ g_base+0(FP), SI
	MOVQ norms_base+24(FP), DI
	MOVQ bounds_base+48(FP), R8
	MOVQ g_len+8(FP), CX
	VBROADCASTSD qn+72(FP), Y14
	VBROADCASTSD bound+80(FP), Y15
	XORQ AX, AX
	CMPQ AX, CX
	JGE  fedone

feloop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VADDPD  (DI)(AX*8), Y14, Y2
	VADDPD  32(DI)(AX*8), Y14, Y3
	VADDPD  Y0, Y0, Y0
	VADDPD  Y1, Y1, Y1
	VSUBPD  Y0, Y2, Y2
	VSUBPD  Y1, Y3, Y3
	VCMPPD  $0x19, (R8)(AX*8), Y2, Y5
	VCMPPD  $0x19, 32(R8)(AX*8), Y3, Y6
	VCMPPD  $0x19, Y15, Y2, Y2
	VCMPPD  $0x19, Y15, Y3, Y3
	VORPD   Y5, Y2, Y2
	VORPD   Y6, Y3, Y3
	VORPD   Y3, Y2, Y4
	VMOVMSKPD Y4, BX
	TESTL   BX, BX
	JNZ     fehit
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     feloop
	JMP     fedone

fehit:
	VMOVMSKPD Y2, BX
	VMOVMSKPD Y3, DX
	SHLL    $4, DX
	ORL     DX, BX
	BSFL    BX, BX
	ADDQ    BX, AX

fedone:
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET
