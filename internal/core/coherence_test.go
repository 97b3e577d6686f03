package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The coherence kernel (coherence_amd64.s) must give AnalyzeBasis the bits
// of the Go loop it replaced, coherenceRowGeneric: every one of the three
// sums, for every direction, at every row length.

// requireCoherenceRow runs one row through the dispatched coherenceRow and
// through coherenceRowGeneric, from the same starting sums, and compares
// the sums' bits. Two NaNs match whatever their payloads: when both
// operands of an add are NaN, the one that survives depends on which
// register the compiler made the destination, and Go may order a
// commutative add's operands either way.
func requireCoherenceRow(t *testing.T, what string, p, s, start []float64) {
	t.Helper()
	n := len(p)
	sums := func() [3][]float64 {
		var out [3][]float64
		for i := range out {
			out[i] = append([]float64(nil), start[i*n:(i+1)*n]...)
		}
		return out
	}
	got, want := sums(), sums()
	coherenceRow(p, s, got[0], got[1], got[2], make([]int32, n))
	coherenceRowGeneric(p, s, want[0], want[1], want[2])
	for i, name := range [3]string{"sumsSq", "sumsCF", "sumsCP"} {
		for j, g := range got[i] {
			if w := want[i][j]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: %s[%d] = %v (%#x), Go loop %v (%#x); p=%v s=%v",
					what, name, j, g, math.Float64bits(g), w, math.Float64bits(w), p[j], s[j])
			}
		}
	}
}

// coherenceEdges are the z = CF/√2 values where fdlibm's erf changes
// branch, and where the kernel hands a lane back: 2⁻²⁸, 0.84375, 1.25 and
// 6, with ±0 and the smallest subnormal.
var coherenceEdges = []float64{1.0 / (1 << 28), 0.84375, 1.25, 6, 0, 5e-324}

// TestCoherenceRowMatchesTwin walks p across each branch edge ulp by ulp
// (s = 4, so CF = |p|/2 and z = CF/√2), mixed with random terms and the
// special values of either operand, at row lengths 0 to 13 so the kernel's
// four-lane body and the Go tail both run.
func TestCoherenceRowMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	specialP := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	specialS := []float64{0, math.Copysign(0, -1), 5e-324, -1, math.Inf(1), math.NaN()}
	for _, edge := range coherenceEdges {
		centre := 2 * math.Sqrt2 * edge
		for n := 0; n <= 13; n++ {
			for trial := 0; trial < 8; trial++ {
				p, s, start := make([]float64, n), make([]float64, n), make([]float64, 3*n)
				for j := range p {
					p[j], s[j] = centre, 4
					for step := rng.Intn(81) - 40; step != 0; {
						if step > 0 {
							p[j], step = math.Nextafter(p[j], math.Inf(1)), step-1
						} else {
							p[j], step = math.Nextafter(p[j], math.Inf(-1)), step+1
						}
					}
					switch rng.Intn(8) {
					case 0:
						p[j] = specialP[rng.Intn(len(specialP))]
					case 1:
						s[j] = specialS[rng.Intn(len(specialS))]
					case 2:
						p[j], s[j] = rng.NormFloat64(), rng.ExpFloat64()
					case 3:
						p[j] = -p[j]
					}
				}
				for j := range start {
					start[j] = rng.ExpFloat64()
				}
				requireCoherenceRow(t, fmt.Sprintf("edge %v n=%d trial %d", edge, n, trial), p, s, start)
			}
		}
	}
}

// TestCoherenceRowForcedGo pins the dispatch: with the kernel forced off,
// coherenceRow is the Go loop on every platform.
func TestCoherenceRowForcedGo(t *testing.T) {
	saved := hasAVX2
	hasAVX2 = false
	t.Cleanup(func() { hasAVX2 = saved })
	rng := rand.New(rand.NewSource(19))
	p, s, start := make([]float64, 9), make([]float64, 9), make([]float64, 27)
	for j := range p {
		p[j], s[j] = rng.NormFloat64(), rng.ExpFloat64()
	}
	requireCoherenceRow(t, "forced Go", p, s, start)
}

// coherenceFuzzInput encodes one row for FuzzCoherence: n, then the raw
// bits of p, s and the starting sums.
func coherenceFuzzInput(p, s []float64) []byte {
	out := []byte{byte(len(p))}
	for _, v := range append(append([]float64(nil), p...), s...) {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzCoherence holds coherenceRow to coherenceRowGeneric on fuzzer-chosen
// bits. The first byte picks the row length (0 to 40); the rest, cycled
// eight bytes at a time, are the raw bits of p, s and the three starting
// sums. The seeds put z on each branch edge.
func FuzzCoherence(f *testing.F) {
	for _, edge := range coherenceEdges {
		p := 2 * math.Sqrt2 * edge
		f.Add(coherenceFuzzInput([]float64{p, math.Nextafter(p, 0), math.Nextafter(p, 4), -p, p},
			[]float64{4, 4, 4, 4, 4}))
	}
	f.Add(coherenceFuzzInput([]float64{math.NaN(), 1, math.Copysign(0, -1), 5e-324, 2, 3, 4, 5},
		[]float64{1, math.NaN(), 1, 1e-310, 0, math.Inf(1), -2, 0.5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		n := int(data[0]) % 41
		rest, off := data[1:], 0
		vec := func(m int) []float64 {
			v := make([]float64, m)
			for i := range v {
				var b [8]byte
				for j := range b {
					b[j] = rest[off%len(rest)]
					off++
				}
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
			return v
		}
		p, s := vec(n), vec(n)
		requireCoherenceRow(t, fmt.Sprintf("n=%d", n), p, s, vec(3*n))
	})
}
