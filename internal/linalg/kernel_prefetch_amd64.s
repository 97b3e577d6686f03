// Cache hints for the store's sweep (kernel_prefetch_amd64.go has the
// contract). Each body issues one PREFETCHT0 per 64-byte step from the
// slice's first byte while the step stays at or below its last byte, then
// one at the last byte, which reaches the final line when the first byte
// is not line-aligned. Every address is inside the slice; PREFETCHT0 never
// faults and writes nothing, so the hint cannot change a result.

#include "textflag.h"

// func Prefetch(b []uint8)
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	TESTQ CX, CX
	JZ    pfdone
	LEAQ  -1(SI)(CX*1), DI

pfloop:
	PREFETCHT0 (SI)
	ADDQ $64, SI
	CMPQ SI, DI
	JLS  pfloop
	PREFETCHT0 (DI)

pfdone:
	RET

// func PrefetchF64(f []float64)
TEXT ·PrefetchF64(SB), NOSPLIT, $0-24
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), CX
	TESTQ CX, CX
	JZ    pf64done
	LEAQ  -1(SI)(CX*8), DI

pf64loop:
	PREFETCHT0 (SI)
	ADDQ $64, SI
	CMPQ SI, DI
	JLS  pf64loop
	PREFETCHT0 (DI)

pf64done:
	RET
