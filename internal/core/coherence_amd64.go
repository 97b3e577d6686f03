//go:build amd64

package core

import (
	"math"

	"repro/internal/stats"
)

//go:noescape
func coherenceRowAVX2(p, s, sumsSq, sumsCF, sumsCP []float64, fallback []int32) int

func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 selects the coherence kernel in coherence_amd64.s: AVX and AVX2
// present and YMM state enabled by the OS (OSXSAVE + XGETBV), as
// internal/linalg detects them. A var so tests can force the Go loop.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		cpuid1OSXSAVE = 1 << 27 // CPUID.1:ECX.OSXSAVE
		cpuid1AVX     = 1 << 28 // CPUID.1:ECX.AVX
		cpuid7AVX2    = 1 << 5  // CPUID.7.0:EBX.AVX2
	)
	if maxID, _, _, _ := cpuidx(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuidx(1, 0); ecx1&cpuid1OSXSAVE == 0 || ecx1&cpuid1AVX == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuidx(7, 0)
	return ebx7&cpuid7AVX2 != 0
}

// coherenceRow is coherenceRowGeneric, bit for bit: the kernel takes the
// largest multiple of four directions, the scalar erf the lanes it lists
// (before the next row, so each sum keeps row order), and the Go loop the
// remaining columns. fallback needs room for len(p) indices.
func coherenceRow(p, s, sumsSq, sumsCF, sumsCP []float64, fallback []int32) {
	head := 0
	if hasAVX2 {
		head = len(p) &^ 3
		n := coherenceRowAVX2(p[:head], s, sumsSq, sumsCF, sumsCP, fallback)
		for _, j := range fallback[:n] {
			sumsCP[j] += stats.TwoSidedProbability(math.Abs(p[j]) / math.Sqrt(s[j]))
		}
	}
	coherenceRowGeneric(p[head:], s[head:], sumsSq[head:], sumsCF[head:], sumsCP[head:])
}
