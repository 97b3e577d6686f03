// AVX2/FMA kernels for the hot inner products of the batch-distance engine,
// and tqli's rotation. Only unit-stride, read-only (dot) and
// read-modify-write (axpy, axpy4, rot) forms are provided; callers
// guarantee equal lengths. The kernels are dispatched behind the
// hasAVX2FMA CPUID gate in kernel_amd64.go and are bit-for-bit
// deterministic on a given machine (FMA contraction makes dot and axpy
// differ from the generic kernels in the last ulp or two; axpy4 matches
// four axpyAVX2 calls and rot, which is unfused, its Go loop, bit for bit).

#include "textflag.h"

// func dotAVX2(a, b []float64) float64
//
// Four 256-bit accumulators hide the 4-5 cycle FMA latency; 16 elements per
// iteration. The tail runs scalar FMAs into the low lane of the reduced sum.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   reduce

loop16:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ BX
	JNZ  loop16

reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	ANDQ $15, CX
	JZ   done

tail:
	VMOVSD (SI), X1
	VFMADD231SD (DI), X1, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  tail

done:
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET

// func axpyAVX2(alpha float64, x, y []float64)
//
// y += alpha * x, 8 elements per iteration.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   axpytailsetup

axpyloop8:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  axpyloop8

axpytailsetup:
	ANDQ $7, CX
	JZ   axpydone

axpytail:
	VMOVSD (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpytail

axpydone:
	VZEROUPPER
	RET

// func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
//
// y += a0·x0, then a1·x1, a2·x2, a3·x3: per element the four fused steps of
// four axpyAVX2 calls, in the same order, with y loaded and stored once
// instead of four times. 8 elements per iteration, scalar tail.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ x0_base+32(FP), SI
	MOVQ x1_base+56(FP), R8
	MOVQ x2_base+80(FP), R9
	MOVQ x3_base+104(FP), R10
	MOVQ y_base+128(FP), DI
	MOVQ y_len+136(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   axpy4tailsetup

axpy4loop8:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VFMADD231PD (SI), Y0, Y4
	VFMADD231PD 32(SI), Y0, Y5
	VFMADD231PD (R8), Y1, Y4
	VFMADD231PD 32(R8), Y1, Y5
	VFMADD231PD (R9), Y2, Y4
	VFMADD231PD 32(R9), Y2, Y5
	VFMADD231PD (R10), Y3, Y4
	VFMADD231PD 32(R10), Y3, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, DI
	DECQ BX
	JNZ  axpy4loop8

axpy4tailsetup:
	ANDQ $7, CX
	JZ   axpy4done

axpy4tail:
	VMOVSD (DI), X4
	VFMADD231SD (SI), X0, X4
	VFMADD231SD (R8), X1, X4
	VFMADD231SD (R9), X2, X4
	VFMADD231SD (R10), X3, X4
	VMOVSD X4, (DI)
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, DI
	DECQ CX
	JNZ  axpy4tail

axpy4done:
	VZEROUPPER
	RET

// func rotAVX2(s, c float64, lo, hi []float64)
//
// The Givens rotation of tqli on two rows: hi = s·lo + c·hi and
// lo = c·lo − s·hi, from the old values. Unfused multiplies, adds and
// subtracts, each rounded, exactly as the Go loop compiles without FMA.
// 4 elements per iteration, scalar tail.
TEXT ·rotAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD s+0(FP), Y0
	VBROADCASTSD c+8(FP), Y1
	MOVQ lo_base+16(FP), SI
	MOVQ lo_len+24(FP), CX
	MOVQ hi_base+40(FP), DI
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   rottailsetup

rotloop4:
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y1, Y6
	VMULPD  Y3, Y0, Y7
	VSUBPD  Y7, Y6, Y6
	VMOVUPD Y4, (DI)
	VMOVUPD Y6, (SI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  rotloop4

rottailsetup:
	ANDQ $3, CX
	JZ   rotdone

rottail:
	VMOVSD (SI), X2
	VMOVSD (DI), X3
	VMULSD X2, X0, X4
	VMULSD X3, X1, X5
	VADDSD X5, X4, X4
	VMULSD X2, X1, X6
	VMULSD X3, X0, X7
	VSUBSD X7, X6, X6
	VMOVSD X4, (DI)
	VMOVSD X6, (SI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  rottail

rotdone:
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

// func mixRowAVX2(dst, wt []float64, ldw int, z, eps []float64, sigma float64, scales []float64)
//
// MixRow over len(dst) columns, a multiple of four, with concept j's row of
// Wᵀ at wt[j·ldw] and k = len(z) ≥ 1. Each column's accumulator starts at
// +0 and stays in a register across all k concepts; the products, sums and
// the noise/scale step are unfused and rounded one by one, exactly as
// mixRowGeneric compiles on amd64. Where two NaNs meet, x86 returns the
// first source's, so each instruction names its sources in the order the
// standard build of the twin does (w before z, eps before sigma, the
// product before the sum it joins, the sum before the scale) and NaN
// payloads match too. 32 columns (eight independent chains) per block,
// then 4 at a time.
TEXT ·mixRowAVX2(SB), NOSPLIT, $0-136
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ wt_base+24(FP), SI
	MOVQ ldw+48(FP), R8
	SHLQ $3, R8
	MOVQ z_base+56(FP), R9
	MOVQ z_len+64(FP), R10
	MOVQ eps_base+80(FP), R11
	VBROADCASTSD sigma+104(FP), Y15
	MOVQ scales_base+112(FP), R12
	CMPQ CX, $32
	JLT  mix4

mix32:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R13
	MOVQ R9, R14
	MOVQ R10, BX

mix32k:
	VBROADCASTSD (R14), Y8
	VMOVUPD (R13), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y0, Y9, Y0
	VMOVUPD 32(R13), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y1, Y10, Y1
	VMOVUPD 64(R13), Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y2, Y11, Y2
	VMOVUPD 96(R13), Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y3, Y12, Y3
	VMOVUPD 128(R13), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y4, Y9, Y4
	VMOVUPD 160(R13), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y5, Y10, Y5
	VMOVUPD 192(R13), Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y6, Y11, Y6
	VMOVUPD 224(R13), Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y7, Y12, Y7
	ADDQ R8, R13
	ADDQ $8, R14
	DECQ BX
	JNZ  mix32k

	VMOVUPD (R11), Y9
	VMULPD Y15, Y9, Y9
	VADDPD Y0, Y9, Y0
	VMULPD (R12), Y0, Y0
	VMOVUPD Y0, (DI)
	VMOVUPD 32(R11), Y10
	VMULPD Y15, Y10, Y10
	VADDPD Y1, Y10, Y1
	VMULPD 32(R12), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VMOVUPD 64(R11), Y11
	VMULPD Y15, Y11, Y11
	VADDPD Y2, Y11, Y2
	VMULPD 64(R12), Y2, Y2
	VMOVUPD Y2, 64(DI)
	VMOVUPD 96(R11), Y12
	VMULPD Y15, Y12, Y12
	VADDPD Y3, Y12, Y3
	VMULPD 96(R12), Y3, Y3
	VMOVUPD Y3, 96(DI)
	VMOVUPD 128(R11), Y9
	VMULPD Y15, Y9, Y9
	VADDPD Y4, Y9, Y4
	VMULPD 128(R12), Y4, Y4
	VMOVUPD Y4, 128(DI)
	VMOVUPD 160(R11), Y10
	VMULPD Y15, Y10, Y10
	VADDPD Y5, Y10, Y5
	VMULPD 160(R12), Y5, Y5
	VMOVUPD Y5, 160(DI)
	VMOVUPD 192(R11), Y11
	VMULPD Y15, Y11, Y11
	VADDPD Y6, Y11, Y6
	VMULPD 192(R12), Y6, Y6
	VMOVUPD Y6, 192(DI)
	VMOVUPD 224(R11), Y12
	VMULPD Y15, Y12, Y12
	VADDPD Y7, Y12, Y7
	VMULPD 224(R12), Y7, Y7
	VMOVUPD Y7, 224(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	ADDQ $256, R11
	ADDQ $256, R12
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  mix32

mix4:
	CMPQ CX, $4
	JLT  mixdone

mix4col:
	VXORPD Y0, Y0, Y0
	MOVQ SI, R13
	MOVQ R9, R14
	MOVQ R10, BX

mix4k:
	VBROADCASTSD (R14), Y8
	VMOVUPD (R13), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y0, Y9, Y0
	ADDQ R8, R13
	ADDQ $8, R14
	DECQ BX
	JNZ  mix4k

	VMOVUPD (R11), Y9
	VMULPD Y15, Y9, Y9
	VADDPD Y0, Y9, Y0
	VMULPD (R12), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R11
	ADDQ $32, R12
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  mix4col

mixdone:
	VZEROUPPER
	RET
