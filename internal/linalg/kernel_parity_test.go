package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These tests pin the contract between the two kernel implementations
// (kernel_amd64.s dispatched by kernel_amd64.go, and the portable
// kernel_noasm.go path):
//
//   - With hasAVX2FMA forced off, dotUnitary/axpyUnitary must be
//     bit-identical to dotGeneric/axpyGeneric on every platform. This is
//     the fallback CI's amd64 runner never takes naturally; forcing the
//     flag executes it everywhere.
//   - With the platform's real dispatch, results may differ from the
//     generic kernels only by FMA rounding — a few ulps relative — never
//     structurally.
//
// Build-tag matrix: kernel_amd64.{go,s} build only on amd64 (dispatch can
// still select the generic path at runtime via CPUID/XGETBV);
// kernel_noasm.go builds everywhere else and pins hasAVX2FMA=false. The
// lengths cover the asmMinLen boundary: below it (1, 7), exactly at a
// vector-width multiple (16), and a long unaligned tail case (166).
var parityDims = []int{1, 7, 16, 166}

func forceGeneric(t *testing.T) {
	t.Helper()
	saved := hasAVX2FMA
	hasAVX2FMA = false
	t.Cleanup(func() { hasAVX2FMA = saved })
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDotFallbackExactlyMatchesGeneric(t *testing.T) {
	forceGeneric(t)
	rng := rand.New(rand.NewSource(71))
	for _, d := range parityDims {
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(rng, d), randVec(rng, d)
			got, want := dotUnitary(a, b), dotGeneric(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d trial=%d: forced-generic dotUnitary=%v, dotGeneric=%v (must be bit-identical)", d, trial, got, want)
			}
		}
	}
}

func TestAxpyFallbackExactlyMatchesGeneric(t *testing.T) {
	forceGeneric(t)
	rng := rand.New(rand.NewSource(73))
	for _, d := range parityDims {
		for trial := 0; trial < 50; trial++ {
			x := randVec(rng, d)
			y := randVec(rng, d)
			alpha := rng.NormFloat64()
			y1 := append([]float64(nil), y...)
			y2 := append([]float64(nil), y...)
			axpyUnitary(alpha, x, y1)
			axpyGeneric(alpha, x, y2)
			for i := range y1 {
				if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
					t.Fatalf("d=%d trial=%d i=%d: forced-generic axpyUnitary=%v, axpyGeneric=%v (must be bit-identical)", d, trial, i, y1[i], y2[i])
				}
			}
		}
	}
}

// kernelRelTol bounds the divergence the dispatched (possibly FMA) kernel
// may show against the generic one, relative to the magnitude of the
// operands (not of the result — cancellation can make the result
// arbitrarily smaller than the rounding noise each implementation
// legitimately carries). One FMA skips one rounding per multiply-add, so
// the drift is a modest multiple of machine epsilon times the operand
// scale; 1e-14 is ~45 eps, loose enough for the 166-term accumulations and
// tight enough to catch any structural disagreement.
const kernelRelTol = 1e-14

func TestDotDispatchedWithinTolOfGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, d := range parityDims {
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(rng, d), randVec(rng, d)
			scale := 0.0
			for i := range a {
				scale += math.Abs(a[i] * b[i])
			}
			got, want := dotUnitary(a, b), dotGeneric(a, b)
			if err := math.Abs(got - want); err > kernelRelTol*(scale+1) {
				t.Fatalf("d=%d trial=%d: dispatched dot %v vs generic %v (err %g, operand scale %g)", d, trial, got, want, err, scale)
			}
		}
	}
}

func TestAxpyDispatchedWithinTolOfGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, d := range parityDims {
		for trial := 0; trial < 50; trial++ {
			x := randVec(rng, d)
			y := randVec(rng, d)
			alpha := rng.NormFloat64()
			y1 := append([]float64(nil), y...)
			y2 := append([]float64(nil), y...)
			axpyUnitary(alpha, x, y1)
			axpyGeneric(alpha, x, y2)
			for i := range y1 {
				scale := math.Abs(y[i]) + math.Abs(alpha*x[i])
				if err := math.Abs(y1[i] - y2[i]); err > kernelRelTol*(scale+1) {
					t.Fatalf("d=%d trial=%d i=%d: dispatched axpy %v vs generic %v (err %g, operand scale %g)", d, trial, i, y1[i], y2[i], err, scale)
				}
			}
		}
	}
}

// TestKernelEdgeValues checks both paths agree bitwise on edge values the
// norm-cache identity actually feeds them: zeros, exact cancellations,
// subnormals, and huge magnitudes. All cases are shorter than asmMinLen, so
// the dispatcher must route them to the generic kernel on every platform —
// equality here proves the short-vector path never enters the asm.
func TestKernelEdgeValues(t *testing.T) {
	cases := [][2][]float64{
		{{0, 0, 0, 0}, {1, 2, 3, 4}},
		{{1, -1, 1, -1}, {1, 1, 1, 1}},
		{{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64}, {1, 1}},
		{{1e308, -1e308}, {1, 1}},
	}
	for i, c := range cases {
		got, want := dotUnitary(c[0], c[1]), dotGeneric(c[0], c[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: short-vector dot %v vs generic %v must be bit-identical", i, got, want)
		}
	}
}

// The two row kernels under AtA and tqli promise more than tolerance:
// axpy4Unitary is four axpyUnitary calls in row order and rotRows is
// rotGeneric, bit for bit, at every length on both sides of asmMinLen and
// every tail residue.

// parityValue draws a normal value, or one time in eight an edge value.
func parityValue(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e308, -1e-310}
	if rng.Intn(8) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	return rng.NormFloat64()
}

func parityVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = parityValue(rng)
	}
	return v
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestAxpy4IsFourAxpys(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for d := 0; d <= 40; d++ {
		for trial := 0; trial < 20; trial++ {
			var a [4]float64
			var x [4][]float64
			for r := range a {
				a[r], x[r] = rng.NormFloat64(), parityVec(rng, d)
			}
			y := parityVec(rng, d)
			want := append([]float64(nil), y...)
			for r := range a {
				axpyUnitary(a[r], x[r], want)
			}
			axpy4Unitary(a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3], y)
			requireSameBits(t, fmt.Sprintf("d=%d trial=%d", d, trial), y, want)
		}
	}
}

func TestRotRowsIsRotGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for d := 0; d <= 40; d++ {
		for trial := 0; trial < 20; trial++ {
			theta := rng.Float64() * 2 * math.Pi
			s, c := math.Sin(theta), math.Cos(theta)
			lo, hi := parityVec(rng, d), parityVec(rng, d)
			wantLo, wantHi := append([]float64(nil), lo...), append([]float64(nil), hi...)
			rotGeneric(s, c, wantLo, wantHi)
			rotRows(s, c, lo, hi)
			what := fmt.Sprintf("d=%d trial=%d", d, trial)
			requireSameBits(t, what+" lo", lo, wantLo)
			requireSameBits(t, what+" hi", hi, wantHi)
		}
	}
}

// requireBackAccum runs tred2's back-accumulation for step i on copies of
// the n×n a, dispatched and as the Go loop, and holds the two to the same
// bits. As for MixRow, where two NaNs meet the payload follows an operand
// order Go does not fix (the -fuzz build adds g to the product, the
// standard build the product to g), so a NaN matches any NaN.
func requireBackAccum(t *testing.T, what string, a []float64, n, i int) {
	t.Helper()
	got, want := append([]float64(nil), a...), append([]float64(nil), a...)
	backAccum(got, n, i)
	backAccumGeneric(want, n, i, 0)
	for e, g := range got {
		if math.Float64bits(g) != math.Float64bits(want[e]) && !(math.IsNaN(g) && math.IsNaN(want[e])) {
			t.Fatalf("%s: a[%d][%d] = %v (%#x), loop %v (%#x)", what, e/n, e%n, g, math.Float64bits(g), want[e], math.Float64bits(want[e]))
		}
	}
}

// TestBackAccumMatchesLoop covers every step i of orders around the
// kernel's 4- and 16-column blocks and the paper's 166, on entries with
// ±0, subnormals, huge values (their products overflow), ±Inf and NaNs of
// two payloads, which a finite symmetric input never reaches.
func TestBackAccumMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	nan2 := math.Float64frombits(0x7ff8_0000_0000_00a5)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), nan2}
	for _, n := range []int{1, 2, 4, 5, 16, 17, 20, 35, 166} {
		a := make([]float64, n*n)
		for i := range a {
			a[i] = parityValue(rng)
			if rng.Intn(64) == 0 {
				a[i] = special[rng.Intn(len(special))]
			}
		}
		for i := 1; i < n; i++ {
			requireBackAccum(t, fmt.Sprintf("n=%d i=%d", n, i), a, n, i)
		}
	}
}

// FuzzBackAccum holds the kernel to the loop on fuzzer-chosen bits: the
// first byte picks the order (1 to 40) and the second the step; the rest,
// cycled eight bytes at a time, are the raw bits of a.
func FuzzBackAccum(f *testing.F) {
	f.Add([]byte{8, 7, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{21, 19, 1, 2, 3, 4, 5, 6, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add([]byte{39, 200, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		n := int(data[0])%40 + 1
		if n < 2 {
			t.Skip()
		}
		i := int(data[1])%(n-1) + 1
		rest := data[2:]
		a := make([]float64, n*n)
		for e := range a {
			var b [8]byte
			for j := range b {
				b[j] = rest[(8*e+j)%len(rest)]
			}
			a[e] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		requireBackAccum(t, fmt.Sprintf("n=%d i=%d", n, i), a, n, i)
	})
}

// The A·Bᵀ kernel's contract is stronger than the dot kernels': it is
// defined as one chain per output element, so assembly, portable twin and a
// three-line reference loop must agree on every bit, whatever the shape.

// refChain is the definition of one output element of MulT, written out.
func refChain(a, b []float64) float64 {
	acc := 0.0
	for t := range a {
		if hasFMA {
			acc = math.FMA(a[t], b[t], acc)
		} else {
			acc += a[t] * b[t]
		}
	}
	return acc
}

// denseOf builds an m×k matrix from rows, k = 0 included (no constructor
// makes a zero-column Dense, the kernel must still accept one).
func denseOf(rng *rand.Rand, m, k int) *Dense {
	d := &Dense{rows: m, cols: k, data: make([]float64, m*k)}
	for i := range d.data {
		d.data[i] = rng.NormFloat64()
	}
	return d
}

func requireChain(t *testing.T, what string, got, a, b *Dense) {
	t.Helper()
	k := a.cols
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.rows; j++ {
			want := refChain(a.data[i*k:(i+1)*k], b.data[j*k:(j+1)*k])
			if g := got.data[i*got.cols+j]; math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("%s %dx%dx%d: out[%d][%d] = %v (%#x), chain gives %v (%#x)",
					what, a.rows, b.rows, k, i, j, g, math.Float64bits(g), want, math.Float64bits(want))
			}
		}
	}
}

func TestMulTIsTheSequentialChain(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, m := range []int{1, 3, 4, 5, 131} {
		for _, n := range []int{1, 7, 8, 9, 2051} {
			for _, k := range []int{0, 1, 7, 16, 166} {
				a, b := denseOf(rng, m, k), denseOf(rng, n, k)
				dst := NewDense(m, n)
				for i := range dst.data {
					dst.data[i] = math.NaN() // every element must be overwritten
				}
				MulTInto(dst, a, b)
				requireChain(t, "dispatched", dst, a, b)
				if k == 0 {
					continue
				}
				// The dispatcher directly, over a row sub-range, with the
				// assembly forced off: the portable twin, same bits.
				part := NewDense(m, n)
				withGeneric(func() { mulTRows(part, a, b, 0, m) })
				if !part.Equal(dst, 0) {
					t.Fatalf("%dx%dx%d: portable twin differs from dispatched kernel", m, n, k)
				}
			}
		}
	}
}

func TestMulTIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	a, b := randDense(rng, 131, 33), randDense(rng, 75, 33)
	want := MulT(a, b)
	for _, procs := range []int{1, 2, 4} {
		withWorkers(procs, func() {
			if got := MulT(a, b); !got.Equal(want, 0) {
				t.Fatalf("GOMAXPROCS=%d changed the product's bits", procs)
			}
		})
	}
}

// TestMulTEdgeValues feeds the chain NaN, ±Inf, subnormal and huge rows: the
// assembly and the portable twin must propagate them identically (lanes of
// a ragged panel compute on zero padding next to them and are not stored).
func TestMulTEdgeValues(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	rows := [][]float64{
		{0, 0, 0, 0, 0},
		{1, -1, 1, -1, 1},
		{tiny, tiny, -tiny, 2 * tiny, 0},
		{1e308, -1e308, 1e308, 1, 1},
		{math.Inf(1), 1, 2, 3, 4},
		{math.Inf(-1), 0, 0, 0, 0},
		{math.NaN(), 1, 1, 1, 1},
		{1e-170, 1e-170, 1e170, 1e170, -1},
		{3, 1, 4, 1, 5},
	}
	x := FromRows(rows)
	got := MulT(x, x)
	requireChain(t, "dispatched", got, x, x)
	var portable *Dense
	withGeneric(func() { portable = MulT(x, x) })
	for i, v := range got.data {
		if math.Float64bits(v) != math.Float64bits(portable.data[i]) {
			t.Fatalf("element %d: dispatched %v (%#x), portable %v (%#x)",
				i, v, math.Float64bits(v), portable.data[i], math.Float64bits(portable.data[i]))
		}
	}
}

// mulTPaths are MulTInto's three implementations, chosen through the
// dispatch vars: the AVX-512 16-row panel, the AVX2 8-row panel and the
// portable chain.
var mulTPaths = []struct {
	name         string
	avx2, avx512 bool
}{{"zmm", true, true}, {"avx2", true, false}, {"chain", false, false}}

// mulTEachPath returns a·bᵀ from every implementation this CPU can run,
// by name.
func mulTEachPath(a, b *Dense) map[string]*Dense {
	saved2, saved512 := hasAVX2FMA, hasAVX512
	defer func() { hasAVX2FMA, hasAVX512 = saved2, saved512 }()
	out := map[string]*Dense{}
	for _, p := range mulTPaths {
		if p.avx2 && !saved2 || p.avx512 && !saved512 {
			continue
		}
		hasAVX2FMA, hasAVX512 = p.avx2, p.avx512
		dst := NewDense(a.rows, b.rows)
		for i := range dst.data {
			dst.data[i] = math.NaN() // every element must be overwritten
		}
		out[p.name] = MulTInto(dst, a, b)
	}
	return out
}

// requireMulTPathsAgree holds every implementation to the chain's bits.
func requireMulTPathsAgree(t *testing.T, a, b *Dense) {
	t.Helper()
	got := mulTEachPath(a, b)
	want := got["chain"]
	for name, g := range got {
		for i, v := range g.data {
			if w := want.data[i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%dx%dx%d %s: out[%d][%d] = %v (%#x), chain %v (%#x)",
					a.rows, b.rows, a.cols, name, i/g.cols, i%g.cols, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
}

// mulTValue is a standard normal draw, or with probability 1/16 one of
// the values the chain must carry through unchanged: ±0, subnormals, ±Inf
// and NaN.
func mulTValue(rng *rand.Rand) float64 {
	special := [...]float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e-310,
		math.Inf(1), math.Inf(-1), math.NaN()}
	if rng.Intn(16) == 0 {
		return special[rng.Intn(len(special))]
	}
	return rng.NormFloat64()
}

// TestMulTPathsAgree runs the three implementations over every tile edge:
// m mod 8 from 0 to 7 (the ZMM tile's row tail, and the AVX2 tile's),
// n mod 16 from 0 to 15 (every ragged panel of either width), and k across
// the AVX-512 path's 256-column slab boundary.
func TestMulTPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, k := range []int{1, 2, 15, 16, 17, 166, 256, 257, 300} {
		for mr := 0; mr < 8; mr++ {
			for nr := 0; nr < 16; nr++ {
				a := &Dense{rows: 8 + mr, cols: k, data: make([]float64, (8+mr)*k)}
				b := &Dense{rows: 16 + nr, cols: k, data: make([]float64, (16+nr)*k)}
				for i := range a.data {
					a.data[i] = mulTValue(rng)
				}
				for i := range b.data {
					b.data[i] = mulTValue(rng)
				}
				requireMulTPathsAgree(t, a, b)
			}
		}
	}
}

// FuzzMulT holds the three implementations to one another on
// fuzzer-chosen shapes and bits. The first three bytes pick m (1 to 40),
// n (1 to 40) and k (1 to 300); the rest, cycled eight bytes at a time,
// are the raw bits of a then b, so every NaN payload can occur.
func FuzzMulT(f *testing.F) {
	f.Add([]byte{8, 16, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{15, 31, 0x01, 0x01, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{7, 17, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		m, n, k := int(data[0])%40+1, int(data[1])%40+1, (int(data[2])<<8|int(data[3]))%300+1
		rest, off := data[4:], 0
		if len(rest) == 0 {
			rest = data
		}
		mat := func(r int) *Dense {
			d := &Dense{rows: r, cols: k, data: make([]float64, r*k)}
			for i := range d.data {
				var b [8]byte
				for j := range b {
					b[j] = rest[off%len(rest)]
					off++
				}
				d.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
			return d
		}
		a := mat(m)
		requireMulTPathsAgree(t, a, mat(n))
	})
}

// TestMulTUnfusedWithoutFMA pins the amd64-without-FMA form of the chain:
// no software math.FMA, a rounded product and a rounded sum per step — and
// the paired norm follows it, so identical rows still cancel exactly.
func TestMulTUnfusedWithoutFMA(t *testing.T) {
	savedFMA, savedAVX := hasFMA, hasAVX2FMA
	hasFMA, hasAVX2FMA = false, false
	t.Cleanup(func() { hasFMA, hasAVX2FMA = savedFMA, savedAVX })
	rng := rand.New(rand.NewSource(101))
	a, b := randDense(rng, 6, 19), randDense(rng, 11, 19)
	got := MulT(a, b)
	for i := 0; i < 6; i++ {
		for j := 0; j < 11; j++ {
			want := 0.0
			for t := 0; t < 19; t++ {
				want += a.At(i, t) * b.At(j, t)
			}
			if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("out[%d][%d] = %v, unfused chain gives %v", i, j, g, want)
			}
		}
	}
	norms, gram := MulTRowNormsSq(a), MulT(a, a)
	for i, v := range norms {
		if math.Float64bits(v) != math.Float64bits(gram.At(i, i)) {
			t.Fatalf("unfused norm[%d] = %v, MulT diagonal %v", i, v, gram.At(i, i))
		}
	}
}

// TestMulTRowNormsSqIsTheDiagonal is the pairing contract of the batch
// engine's norm helper: bit-equal to the product of each row with itself,
// under either implementation of the product.
func TestMulTRowNormsSqIsTheDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, d := range parityDims {
		for _, n := range []int{1, 4, 7, 21} {
			m := randDense(rng, n, d)
			norms := MulTRowNormsSq(m)
			for name, gram := range map[string]*Dense{"dispatched": MulT(m, m), "portable": func() (g *Dense) {
				withGeneric(func() { g = MulT(m, m) })
				return g
			}()} {
				for i, v := range norms {
					if math.Float64bits(v) != math.Float64bits(gram.At(i, i)) {
						t.Fatalf("n=%d d=%d: norm[%d] = %v, %s MulT diagonal %v", n, d, i, v, name, gram.At(i, i))
					}
				}
			}
		}
	}
}

// The first-hit scan kernel (scan.go) is exact too: the AVX2 body, the
// portable loop and a reference written straight from the definition must
// name the same index on every input, NaN and infinities included.

// refFirstBelow is the definition.
func refFirstBelow(g, norms []float64, qn, bound float64) int {
	for j := range g {
		if d2 := qn + norms[j] - 2*g[j]; !(d2 >= bound) {
			return j
		}
	}
	return len(g)
}

// requireFirstBelow holds the exported entry point, the dispatcher with
// the assembly forced off, and the portable loop to the reference.
func requireFirstBelow(t *testing.T, g, norms []float64, qn, bound float64) {
	t.Helper()
	want := refFirstBelow(g, norms, qn, bound)
	got := map[string]int{"FirstBelow": FirstBelow(g, norms, qn, bound), "generic": firstBelowGeneric(g, norms, qn, bound)}
	withGeneric(func() { got["forced-generic dispatcher"] = firstBelowUnitary(g, norms, qn, bound) })
	for name, j := range got {
		if j != want {
			t.Fatalf("%s = %d, reference %d (qn=%v bound=%v g=%v norms=%v)", name, j, want, qn, bound, g, norms)
		}
	}
}

func TestFirstBelowHitAtEveryPosition(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// How the entry at the hit position gets below the bound: by value, or
	// by being unordered or infinite in g or norms.
	hits := []func(g, norms []float64, p int){
		func(g, _ []float64, p int) { g[p] = 3 }, // d2 = 1 + 9 − 6 = 4 < 5
		func(g, _ []float64, p int) { g[p] = nan },
		func(_, norms []float64, p int) { norms[p] = nan },
		func(g, _ []float64, p int) { g[p] = inf },                    // d2 = −Inf
		func(g, norms []float64, p int) { g[p], norms[p] = inf, inf }, // Inf − Inf
	}
	for n := 0; n <= 70; n++ {
		for p := 0; p <= n; p++ { // p == n: no hit
			for hi, hit := range hits {
				g, norms := make([]float64, n), make([]float64, n)
				for j := range g {
					norms[j] = 9 // d2 = 1 + 9 − 0 = 10: above the bound
				}
				if p < n {
					hit(g, norms, p)
					if p+2 < n {
						g[p+2] = 4 // a later hit must not be the one reported
					}
				}
				requireFirstBelow(t, g, norms, 1, 5)
				if hi == 0 {
					requireFirstBelow(t, g, norms, 1, math.Inf(-1)) // only NaN can be below
					requireFirstBelow(t, g, norms, 1, inf)          // everything finite is
					requireFirstBelow(t, g, norms, 1, nan)          // everything is
					requireFirstBelow(t, g, norms, nan, 5)
					requireFirstBelow(t, g, norms, math.Inf(-1), 5)
				}
			}
		}
	}
}

// TestFirstBelowRandom runs near-bound values through all three
// implementations: d2 within an ulp or two of the bound is where a fused or
// reordered evaluation would name a different index.
func TestFirstBelowRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e308, -1e308, math.SmallestNonzeroFloat64}
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(71)
		g, norms := randVec(rng, n), randVec(rng, n)
		qn := rng.Float64() * 3
		for j := range g {
			norms[j] = math.Abs(norms[j])
			if rng.Intn(200) == 0 {
				g[j] = specials[rng.Intn(len(specials))]
			}
			if rng.Intn(200) == 0 {
				norms[j] = specials[rng.Intn(len(specials))]
			}
		}
		bound := math.Inf(1)
		if n > 0 {
			j := rng.Intn(n)
			bound = qn + norms[j] - 2*g[j] // exactly at one d2 …
			if rng.Intn(2) == 0 {
				bound = math.Nextafter(bound, math.Inf(1)) // … or one ulp above it
			}
		}
		requireFirstBelow(t, g, norms, qn, bound)
	}
}

// FuzzFirstBelow: eight bytes per float64, so the fuzzer reaches every bit
// pattern; the first two values are qn and bound, the rest g and norms in
// turn.
func FuzzFirstBelow(f *testing.F) {
	seed := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(seed(1, 5))
	f.Add(seed(1, 5, 0, 9, 10, 3, 9, 10))
	f.Add(seed(1, math.Inf(1), 0, 9, math.NaN()))
	f.Add(seed(math.NaN(), 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) < 2 {
			t.Skip()
		}
		qn, bound, rest := vals[0], vals[1], vals[2:]
		n := len(rest) / 2
		g, norms := make([]float64, n), make([]float64, n)
		for j := range g {
			g[j], norms[j] = rest[2*j], rest[2*j+1]
		}
		requireFirstBelow(t, g, norms, qn, bound)
	})
}

// The self-join's strip kernel (SelfJoin.Strip) is exact as well: on every
// input it writes MulTInto's products and the mask its twin — MulTInto's
// row kernel plus the Go mask loop — writes, and nothing past the strip.

// stripStale fills the mask words before a strip runs.
const stripStale = 0xa5c3_96e1_f00f_3c5a

// stripEachPath runs one strip on every path this CPU can run — the
// AVX-512 kernel, and the twin over the AVX2 and the portable products —
// each into buffers one word longer than the strip and filled with stale
// bits, and returns the products and mask words by path name.
func stripEachPath(sj *SelfJoin, i0, m, j0, w int, norms, bounds []float64) (map[string][]float64, map[string][]uint64) {
	saved2, saved512 := hasAVX2FMA, hasAVX512
	defer func() { hasAVX2FMA, hasAVX512 = saved2, saved512 }()
	nw := StripMaskWords(w)
	gs, masks := map[string][]float64{}, map[string][]uint64{}
	for _, p := range mulTPaths {
		if p.avx2 && !saved2 || p.avx512 && !saved512 {
			continue
		}
		hasAVX2FMA, hasAVX512 = p.avx2, p.avx512
		g, mask := make([]float64, m*w+1), make([]uint64, m*nw+1)
		for i := range g {
			g[i] = math.NaN()
		}
		for i := range mask {
			mask[i] = stripStale
		}
		sj.Strip(g, mask, i0, m, j0, w, norms, bounds)
		gs[p.name], masks[p.name] = g, mask
	}
	return gs, masks
}

// requireStripAgrees holds every path to the chain's products, bit for bit,
// and to the mask written from the definition on those products; the word
// past each buffer must still hold its stale bits.
func requireStripAgrees(t *testing.T, sj *SelfJoin, i0, m, j0, w int, norms, bounds []float64) {
	t.Helper()
	gs, masks := stripEachPath(sj, i0, m, j0, w, norms, bounds)
	nw := StripMaskWords(w)
	want := gs["chain"]
	for name, g := range gs {
		for i, v := range g[:m*w] {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%s strip (%d+%d, %d+%d) k=%d: g[%d][%d] = %v (%#x), chain %v (%#x)", name, i0, m, j0, w, sj.x.cols,
					i/w, i%w, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
			}
		}
		if !math.IsNaN(g[m*w]) {
			t.Fatalf("%s strip (%d+%d, %d+%d): wrote past the products", name, i0, m, j0, w)
		}
		mask := masks[name]
		if mask[m*nw] != stripStale {
			t.Fatalf("%s strip (%d+%d, %d+%d): wrote past the mask", name, i0, m, j0, w)
		}
		for r := 0; r < m; r++ {
			for c := 0; c < nw*64; c++ {
				marked := mask[r*nw+c/64]>>(c%64)&1 == 1
				hit := false
				if c < w {
					gv := want[r*w+c]
					d2 := norms[i0+r] + norms[j0+c] - (gv + gv)
					hit = !(d2 >= bounds[i0+r]) || !(d2 >= bounds[j0+c])
				}
				if marked != hit {
					t.Fatalf("%s strip (%d+%d, %d+%d) k=%d: mask row %d column %d = %v, definition %v (g=%v norms %v, %v bounds %v, %v)",
						name, i0, m, j0, w, sj.x.cols, r, c, marked, hit, want[r*w+min(c, w-1)], norms[i0+r], norms[j0+min(c, w-1)], bounds[i0+r], bounds[j0+min(c, w-1)])
				}
			}
		}
	}
}

// stripBounds returns bounds for x's rows that put the strip's tests on
// their edges: per row one of +Inf, −Inf, NaN, a value exactly at one of
// the row's d2 (a tie, not below) or one ulp above it, or an ordinary
// finite value.
func stripBounds(rng *rand.Rand, x *Dense, norms []float64) []float64 {
	g := MulT(x, x)
	n := x.rows
	bounds := make([]float64, n)
	for i := range bounds {
		j := rng.Intn(n)
		gv := g.At(i, j)
		d2 := norms[i] + norms[j] - (gv + gv)
		switch rng.Intn(7) {
		case 0:
			bounds[i] = math.Inf(1)
		case 1:
			bounds[i] = math.Inf(-1)
		case 2:
			bounds[i] = math.NaN()
		case 3:
			bounds[i] = d2
		case 4:
			bounds[i] = math.Nextafter(d2, math.Inf(1))
		default:
			bounds[i] = math.Abs(rng.NormFloat64()) * 2 * float64(x.cols)
		}
	}
	return bounds
}

// TestStripPathsAgree runs the strip over k across the panel kernel's
// chain lengths (1, 2, 15, 16, 17, 166, 300), row counts off the 16-row
// panel (the last panel padded with zero rows), every strip height from 1
// to 8 (the kernel takes 8, the twin the rest), and column runs ending on,
// inside and at the end of a ragged panel; x holds ±0, subnormals, ±Inf and
// NaN, and the bounds tie with, straddle or are NaN.
func TestStripPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for _, k := range []int{1, 2, 15, 16, 17, 166, 300} {
		for _, n := range []int{57, 83} {
			x := &Dense{rows: n, cols: k, data: make([]float64, n*k)}
			for i := range x.data {
				x.data[i] = mulTValue(rng)
			}
			norms := MulTRowNormsSq(x)
			if k <= 2 {
				norms[3] = math.NaN() // a NaN norm without a NaN product
			}
			bounds := stripBounds(rng, x, norms)
			sj := NewSelfJoin(x)
			for _, m := range []int{StripRows, 1, 5} {
				for _, j0 := range []int{16, 32} {
					for _, w := range []int{1, 15, 16, 17, 22, n - j0} {
						if j0+w > n {
							continue
						}
						requireStripAgrees(t, sj, rng.Intn(n-m+1), m, j0, w, norms, bounds)
					}
				}
			}
		}
	}
}

// FuzzStrip holds the strip's paths to one another on fuzzer-chosen shapes
// and bits. The first four bytes pick k (1 to 300), n (17 to 80), the
// column run's start panel and the strip's first row; the rest, cycled
// eight bytes at a time, are the raw bits of x, then of the norms, then of
// the bounds, so every NaN payload and every tie can occur.
func FuzzStrip(f *testing.F) {
	f.Add([]byte{16, 40, 1, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{0, 166, 3, 9, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{1, 44, 0xff, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		k, n := (int(data[0])<<8|int(data[1]))%300+1, int(data[2])%64+17
		j0 := 16 * (1 + int(data[3])%((n-1)/16))
		i0 := int(data[4]) % (n - StripRows + 1)
		rest, off := data[5:], 0
		if len(rest) == 0 {
			rest = data
		}
		next := func() float64 {
			var b [8]byte
			for j := range b {
				b[j] = rest[off%len(rest)]
				off++
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		x := &Dense{rows: n, cols: k, data: make([]float64, n*k)}
		for i := range x.data {
			x.data[i] = next()
		}
		norms, bounds := make([]float64, n), make([]float64, n)
		for i := range norms {
			norms[i] = next()
		}
		for i := range bounds {
			bounds[i] = next()
		}
		requireStripAgrees(t, NewSelfJoin(x), i0, StripRows, j0, n-j0, norms, bounds)
	})
}

// The store's prefix-bound kernels (PrefixBounds) are exact in the same
// sense: both assembly kernels and their portable twin write the same
// bounds, bit for bit, and the same mask, on every input.

// prefixPaths are PrefixBounds' three implementations, chosen through the
// dispatch vars: as on an AVX-512 VNNI CPU (the ZMM kernel where P is a
// multiple of 32, the AVX2 kernel at the other multiples of 16), the AVX2
// kernel alone, and the portable twin alone.
var prefixPaths = []prefixPath{{"vnni", true, true}, {"avx2", true, false}, {"twin", false, false}}

type prefixPath struct {
	name       string
	avx2, vnni bool
}

// lacks names the instructions this CPU lacks for path p, or is "".
func (p prefixPath) lacks() string {
	switch {
	case p.avx2 && !hasAVX2FMA:
		return "AVX2/FMA"
	case p.vnni && !hasAVX512VNNI:
		return "AVX-512 VNNI (AVX512F/DQ/BW, AVX512_VNNI and the OS's ZMM state)"
	}
	return ""
}

// run calls fn with PrefixBounds dispatching as path p prescribes; the
// CPU must not lack p's instructions.
func (p prefixPath) run(fn func()) {
	saved2, savedVNNI := hasAVX2FMA, hasAVX512VNNI
	defer func() { hasAVX2FMA, hasAVX512VNNI = saved2, savedVNNI }()
	hasAVX2FMA, hasAVX512VNNI = p.avx2, p.vnni
	fn()
}

// prefixBlock is one input of PrefixBounds.
type prefixBlock struct {
	q             PrefixQuery
	rows          []uint8
	snorm         []float32
	csum, csumSuf []uint32
	bound         float64
	// boundRow ≥ 0 replaces bound by the bound of row boundRow mod n, which
	// splits the block and puts one row exactly at it (a tie is not below).
	boundRow int
}

// requirePrefixBounds runs the block on path p and on the portable twin,
// each into mask words full of stale bits plus one word past the block
// that must stay untouched, and holds the two runs to the same bits: equal
// bounds (any NaN equal to any NaN), equal mask words, and bit j set iff
// bound j is below the block-start bound.
func requirePrefixBounds(t *testing.T, what string, b *prefixBlock, p prefixPath) {
	t.Helper()
	n := len(b.snorm)
	if b.boundRow >= 0 && n > 0 {
		var lbs []float64
		withGeneric(func() { lbs, _ = runPrefixBounds(b, math.Inf(1)) })
		b.bound = lbs[b.boundRow%n]
	}
	var lbs, glbs []float64
	var mask, gmask []uint64
	p.run(func() { lbs, mask = runPrefixBounds(b, b.bound) })
	withGeneric(func() { glbs, gmask = runPrefixBounds(b, b.bound) })
	what = p.name + " " + what
	for j := range lbs {
		if math.Float64bits(lbs[j]) != math.Float64bits(glbs[j]) && !(math.IsNaN(lbs[j]) && math.IsNaN(glbs[j])) {
			t.Fatalf("%s: row %d of %d: bound %v (%#x), portable twin %v (%#x)",
				what, j, n, lbs[j], math.Float64bits(lbs[j]), glbs[j], math.Float64bits(glbs[j]))
		}
		if below := glbs[j] < b.bound; mask[j>>6]>>(j&63)&1 == 1 != below {
			t.Fatalf("%s: row %d of %d: mask bit %d, bound %v against %v", what, j, n, mask[j>>6]>>(j&63)&1, glbs[j], b.bound)
		}
	}
	for w := range mask {
		if mask[w] != gmask[w] {
			t.Fatalf("%s: mask word %d = %#x, portable twin %#x", what, w, mask[w], gmask[w])
		}
	}
	if last := mask[len(mask)-1]; last != ^uint64(0) {
		t.Fatalf("%s: the mask word past %d rows was overwritten: %#x", what, n, last)
	}
	if n%64 != 0 && mask[n/64]>>(n%64) != 0 {
		t.Fatalf("%s: mask bits past row %d set: %#x", what, n, mask[n/64])
	}
}

func runPrefixBounds(b *prefixBlock, bound float64) ([]float64, []uint64) {
	n := len(b.snorm)
	lbs := make([]float64, n)
	mask := make([]uint64, (n+63)/64+1)
	for w := range mask {
		mask[w] = ^uint64(0)
	}
	PrefixBounds(&b.q, b.rows, b.snorm, b.csum, b.csumSuf, bound, lbs, mask)
	return lbs, mask
}

// randPrefixBlock draws n rows of P codes, one code in eight at 0 or 255,
// query codes up to MaxQ15 and store-shaped terms: csum the row's own code
// sum, snorm its Σ (step·c)² for a random step, and a suffix sum up to
// 255·100.
func randPrefixBlock(rng *rand.Rand, P, n int) *prefixBlock {
	b := &prefixBlock{rows: make([]uint8, n*P), snorm: make([]float32, n), csum: make([]uint32, n), csumSuf: make([]uint32, n)}
	for i := range b.rows {
		switch rng.Intn(16) {
		case 0:
			b.rows[i] = 0
		case 1:
			b.rows[i] = 255
		default:
			b.rows[i] = uint8(rng.Intn(256))
		}
	}
	b.q.U = randCodesQ15(rng, P)
	for i := range b.q.U {
		if rng.Intn(8) == 0 {
			b.q.U[i] = MaxQ15
		}
	}
	step := rng.Float64()
	for j := 0; j < n; j++ {
		var sum uint32
		var sn float64
		for _, c := range b.rows[j*P : (j+1)*P] {
			sum += uint32(c)
			sn += (step * float64(c)) * (step * float64(c))
		}
		b.csum[j], b.snorm[j], b.csumSuf[j] = sum, float32(sn), uint32(rng.Intn(255*100+1))
	}
	b.q.A2 = math.Abs(rng.NormFloat64()) * 1e4
	b.q.Tmin = rng.NormFloat64() * 10
	b.q.Tstep = math.Abs(rng.NormFloat64()) / MaxQ15
	b.q.Margin = 1e-9 * (b.q.A2 + 1)
	return b
}

// TestPrefixBoundsMatchTwin forces each path of prefixPaths in turn and
// runs every block length from 0 to 40 rows (zero to five groups of eight,
// every tail) at the widths the ZMM kernel takes (32, 64, 256), those only
// the AVX2 kernel takes (16, 48), against a bound that splits the block,
// ±Inf and NaN. A path this CPU cannot run is skipped with the reason.
func TestPrefixBoundsMatchTwin(t *testing.T) {
	for _, p := range prefixPaths {
		t.Run(p.name, func(t *testing.T) {
			if lacks := p.lacks(); lacks != "" {
				t.Skipf("this CPU lacks %s: the %s path cannot run here", lacks, p.name)
			}
			rng := rand.New(rand.NewSource(109))
			for _, P := range prefixWidths {
				for n := 0; n <= 40; n++ {
					for bi, bound := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN()} {
						b := randPrefixBlock(rng, P, n)
						b.bound, b.boundRow = bound, -1
						if bi == 0 {
							b.boundRow = rng.Intn(n + 1)
						}
						requirePrefixBounds(t, fmt.Sprintf("P=%d n=%d bound#%d", P, n, bi), b, p)
					}
				}
			}
		})
	}
}

// prefixWidths are the prefix widths the parity tests run: the first two
// are the store's (prefixDims), in the order FuzzPrefixBound's first byte
// picks them.
var prefixWidths = []int{32, 64, 16, 48, 256}

// FuzzPrefixBound holds every path of prefixPaths this CPU can run to the
// portable twin on fuzzer-chosen blocks. The first three bytes pick the
// width (prefixWidths), the row count (0 to 40) and the bound (a row's own
// bound, +Inf, −Inf or NaN); the next twelve the query scalars; the rest,
// cycled, the query codes (masked to MaxQ15), the row codes and the
// per-row terms.
func FuzzPrefixBound(f *testing.F) {
	for _, p := range prefixPaths {
		if lacks := p.lacks(); lacks != "" {
			f.Logf("this CPU lacks %s: the %s path is not fuzzed", lacks, p.name)
		}
	}
	f.Add([]byte{0, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 255, 0})
	f.Add([]byte{1, 40, 1, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 0x7f, 0xff, 255, 255, 0, 0})
	f.Add([]byte{1, 17, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 31, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 0x7f, 0xff, 0, 255})
	f.Add([]byte{2, 24, 0, 7, 7, 7, 7, 1, 0, 0, 128, 0, 0, 0, 1, 0x7f, 0xff, 255, 3, 254})
	f.Add([]byte{4, 40, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0x7f, 0xff, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 15 {
			t.Skip()
		}
		P := prefixWidths[int(data[0])%len(prefixWidths)]
		n := int(data[1]) % 41
		rest := data[15:]
		k := 0
		next := func() byte {
			if len(rest) == 0 {
				return 0
			}
			v := rest[k%len(rest)]
			k++
			return v
		}
		le := binary.LittleEndian
		b := &prefixBlock{rows: make([]uint8, n*P), snorm: make([]float32, n), csum: make([]uint32, n), csumSuf: make([]uint32, n), boundRow: -1}
		b.q.A2 = float64(le.Uint32(data[3:])) / 16
		b.q.Tmin = float64(int32(le.Uint32(data[7:]))) / 1024
		b.q.Tstep = float64(le.Uint32(data[11:])) / (1 << 40)
		b.q.Margin = 1e-9 * (b.q.A2 + 1)
		b.q.U = make([]uint16, P)
		for i := range b.q.U {
			b.q.U[i] = (uint16(next())<<8 | uint16(next())) & MaxQ15
		}
		for i := range b.rows {
			b.rows[i] = next()
		}
		for j := 0; j < n; j++ {
			b.snorm[j] = float32(uint32(next())<<16|uint32(next())<<8|uint32(next())) / 64
			b.csum[j] = uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next())
			b.csumSuf[j] = uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next())
		}
		switch data[2] & 3 {
		case 0:
			b.boundRow = int(next())
		case 1:
			b.bound = math.Inf(1)
		case 2:
			b.bound = math.Inf(-1)
		case 3:
			b.bound = math.NaN()
		}
		for _, p := range prefixPaths {
			if p.lacks() == "" {
				requirePrefixBounds(t, fmt.Sprintf("P=%d n=%d", P, n), b, p)
			}
		}
	})
}

// MixRow is one chain of unfused steps per element, so the assembly and the
// portable twin must agree on every bit, with one freedom: where two NaNs
// meet, x86 returns the first source's, and Go fixes no operand order for a
// commutative + or ·. The assembly names its sources in the order the
// standard build of the twin does, but an instrumented build (-fuzz)
// allocates registers differently, so a NaN result matches a NaN result
// whatever its payload.

// mixValue draws a normal value, or one time in four an edge value: ±0,
// subnormals, ±Inf, a huge magnitude and two NaNs of different sign and
// payload.
func mixValue(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1e-310, 1e308,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0123)}
	if rng.Intn(4) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	return rng.NormFloat64()
}

func requireMixRow(t *testing.T, what string, wt, z, eps []float64, sigma float64, scales []float64) {
	t.Helper()
	d := len(eps)
	got, want := make([]float64, d), make([]float64, d)
	MixRow(got, wt, z, eps, sigma, scales)
	mixRowGeneric(want, wt, d, z, eps, sigma, scales)
	for i, g := range got {
		if math.Float64bits(g) != math.Float64bits(want[i]) && !(math.IsNaN(g) && math.IsNaN(want[i])) {
			t.Fatalf("%s: [%d] = %v (%#x), twin %v (%#x)", what, i, g, math.Float64bits(g), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMixRowMatchesTwin runs every row length from 0 to 40 (the 32-column
// block, the 4-column block and every tail) at 1 to 16 concepts.
func TestMixRowMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = mixValue(rng)
		}
		return v
	}
	for d := 0; d <= 40; d++ {
		for k := 1; k <= 16; k++ {
			for trial := 0; trial < 4; trial++ {
				requireMixRow(t, fmt.Sprintf("d=%d k=%d trial=%d", d, k, trial),
					vec(k*d), vec(k), vec(d), mixValue(rng), vec(d))
			}
		}
	}
}

// FuzzMixRow holds the assembly to its portable twin on fuzzer-chosen bits.
// The first two bytes pick the row length (0 to 40) and the concept count
// (1 to 16); the rest, cycled eight bytes at a time, are the raw bits of
// sigma, then Wᵀ, z, eps and the scales, so every NaN payload can occur.
func FuzzMixRow(f *testing.F) {
	f.Add([]byte{7, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{40, 15, 0x01, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{33, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			t.Skip()
		}
		d, k := int(data[0])%41, int(data[1])%16+1
		rest, off := data[2:], 0
		next := func() float64 {
			var b [8]byte
			for i := range b {
				b[i] = rest[off%len(rest)]
				off++
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = next()
			}
			return v
		}
		sigma := next()
		wt, z := vec(k*d), vec(k)
		eps, scales := vec(d), vec(d)
		requireMixRow(t, fmt.Sprintf("d=%d k=%d", d, k), wt, z, eps, sigma, scales)
	})
}

// TestPrefetchWritesNothing runs both cache hints over every length up to
// four lines at every offset within a line, empty slices included, and
// holds the buffer they read, guard bytes on both sides, to its contents.
func TestPrefetchWritesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	b := make([]uint8, 64+4*64+64)
	f := make([]float64, len(b))
	for i := range b {
		b[i] = uint8(rng.Intn(256))
		f[i] = rng.NormFloat64()
	}
	b0, f0 := append([]uint8(nil), b...), append([]float64(nil), f...)
	for off := 0; off < 64; off++ {
		for n := 0; n <= 4*64; n++ {
			Prefetch(b[64+off : 64+off+n])
			PrefetchF64(f[off : off+n/8])
		}
	}
	for i := range b {
		if b[i] != b0[i] || math.Float64bits(f[i]) != math.Float64bits(f0[i]) {
			t.Fatalf("entry %d changed: %d → %d, %v → %v", i, b0[i], b[i], f0[i], f[i])
		}
	}
}
