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

// The first-hit scan kernels (scan.go) are exact too: the AVX2 bodies, the
// portable loops and a reference written straight from the definition must
// name the same index on every input, NaN and infinities included.

// refFirstBelow is the definition; bounds == nil is the one-bound form.
func refFirstBelow(g, norms, bounds []float64, qn, bound float64) int {
	for j := range g {
		d2 := qn + norms[j] - 2*g[j]
		if !(d2 >= bound) || bounds != nil && !(d2 >= bounds[j]) {
			return j
		}
	}
	return len(g)
}

// requireFirstBelow holds the exported entry points, the dispatchers with
// the assembly forced off, and the portable loops to the reference.
func requireFirstBelow(t *testing.T, g, norms, bounds []float64, qn, bound float64) {
	t.Helper()
	want := refFirstBelow(g, norms, nil, qn, bound)
	got := map[string]int{"FirstBelow": FirstBelow(g, norms, qn, bound), "generic": firstBelowGeneric(g, norms, qn, bound)}
	withGeneric(func() { got["forced-generic dispatcher"] = firstBelowUnitary(g, norms, qn, bound) })
	for name, j := range got {
		if j != want {
			t.Fatalf("%s = %d, reference %d (qn=%v bound=%v g=%v norms=%v)", name, j, want, qn, bound, g, norms)
		}
	}
	want = refFirstBelow(g, norms, bounds, qn, bound)
	got = map[string]int{"FirstBelowEither": FirstBelowEither(g, norms, bounds, qn, bound), "generic": firstBelowEitherGeneric(g, norms, bounds, qn, bound)}
	withGeneric(func() { got["forced-generic dispatcher"] = firstBelowEitherUnitary(g, norms, bounds, qn, bound) })
	for name, j := range got {
		if j != want {
			t.Fatalf("Either: %s = %d, reference %d (qn=%v bound=%v g=%v norms=%v bounds=%v)", name, j, want, qn, bound, g, norms, bounds)
		}
	}
}

func TestFirstBelowHitAtEveryPosition(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// How the entry at the hit position gets below a bound: through the
	// row's bound, through its own column bound, or by being unordered or
	// infinite in g or norms.
	hits := []func(g, norms, bounds []float64, p int){
		func(g, _, _ []float64, p int) { g[p] = 3 },            // d2 = 1 + 9 − 6 = 4 < 5
		func(_, _, bounds []float64, p int) { bounds[p] = 11 }, // the column's bound alone
		func(g, _, _ []float64, p int) { g[p] = nan },
		func(_, norms, _ []float64, p int) { norms[p] = nan },
		func(g, _, _ []float64, p int) { g[p] = inf },                    // d2 = −Inf
		func(g, norms, _ []float64, p int) { g[p], norms[p] = inf, inf }, // Inf − Inf
		func(_, _, bounds []float64, p int) { bounds[p] = nan },
		func(_, _, bounds []float64, p int) { bounds[p] = inf },
	}
	for n := 0; n <= 70; n++ {
		for p := 0; p <= n; p++ { // p == n: no hit
			for hi, hit := range hits {
				g, norms, bounds := make([]float64, n), make([]float64, n), make([]float64, n)
				for j := range g {
					// d2 = 1 + 9 − 0 = 10: at or above every finite bound used here.
					norms[j] = 9
					bounds[j] = []float64{10, -3, math.Inf(-1)}[j%3]
				}
				if p < n {
					hit(g, norms, bounds, p)
					if p+2 < n {
						g[p+2] = 4 // a later hit must not be the one reported
					}
				}
				requireFirstBelow(t, g, norms, bounds, 1, 5)
				if hi == 0 {
					requireFirstBelow(t, g, norms, bounds, 1, math.Inf(-1)) // only NaN can be below
					requireFirstBelow(t, g, norms, bounds, 1, inf)          // everything finite is
					requireFirstBelow(t, g, norms, bounds, 1, nan)          // everything is
					requireFirstBelow(t, g, norms, bounds, nan, 5)
					requireFirstBelow(t, g, norms, bounds, math.Inf(-1), 5)
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
		g, norms, bounds := randVec(rng, n), randVec(rng, n), make([]float64, n)
		qn := rng.Float64() * 3
		bound := rng.Float64() * 0.2
		for j := range g {
			norms[j] = math.Abs(norms[j])
			bounds[j] = qn + norms[j] - 2*g[j] // exactly at d2 …
			switch rng.Intn(4) {
			case 0:
				bounds[j] = math.Nextafter(bounds[j], math.Inf(1)) // … or one ulp above it
			case 1:
				bounds[j] = math.Inf(-1)
			}
			if rng.Intn(200) == 0 {
				g[j] = specials[rng.Intn(len(specials))]
			}
			if rng.Intn(200) == 0 {
				norms[j] = specials[rng.Intn(len(specials))]
			}
		}
		requireFirstBelow(t, g, norms, bounds, qn, bound)
	}
}

// FuzzFirstBelow: eight bytes per float64, so the fuzzer reaches every bit
// pattern; the first two values are qn and bound, the rest g, norms and
// bounds in turn.
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
		n := len(rest) / 3
		g, norms, bounds := make([]float64, n), make([]float64, n), make([]float64, n)
		for j := range g {
			g[j], norms[j], bounds[j] = rest[3*j], rest[3*j+1], rest[3*j+2]
		}
		requireFirstBelow(t, g, norms, bounds, qn, bound)
	})
}

// The store's prefix-bound kernel (PrefixBounds) is exact in the same sense:
// the assembly and its portable twin write the same bounds, bit for bit, and
// the same mask, on every input.

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

// requirePrefixBounds runs the block dispatched and with the assembly forced
// off, each into mask words full of stale bits plus one word past the block
// that must stay untouched, and holds the two runs to the same bits: equal
// bounds (any NaN equal to any NaN), equal mask words, and bit j set iff
// bound j is below the block-start bound.
func requirePrefixBounds(t *testing.T, what string, b *prefixBlock) {
	t.Helper()
	n := len(b.snorm)
	if b.boundRow >= 0 && n > 0 {
		var lbs []float64
		withGeneric(func() { lbs, _ = runPrefixBounds(b, math.Inf(1)) })
		b.bound = lbs[b.boundRow%n]
	}
	lbs, mask := runPrefixBounds(b, b.bound)
	var glbs []float64
	var gmask []uint64
	withGeneric(func() { glbs, gmask = runPrefixBounds(b, b.bound) })
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

// TestPrefixBoundsMatchTwin runs every block length from 0 to 40 rows (zero
// to five groups of eight, every tail) at every prefix width the assembly
// takes, and at 48 codes, which it does not (the twin runs alone), against
// a bound that splits the block, ±Inf and NaN.
func TestPrefixBoundsMatchTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, P := range []int{16, 32, 48, 64, 256} {
		for n := 0; n <= 40; n++ {
			for bi, bound := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN()} {
				b := randPrefixBlock(rng, P, n)
				b.bound, b.boundRow = bound, -1
				if bi == 0 {
					b.boundRow = rng.Intn(n + 1)
				}
				requirePrefixBounds(t, fmt.Sprintf("P=%d n=%d bound#%d", P, n, bi), b)
			}
		}
	}
}

// FuzzPrefixBound holds the assembly to its portable twin on fuzzer-chosen
// blocks. The first three bytes pick the width (32 or 64 codes), the row
// count (0 to 40) and the bound (a row's own bound, +Inf, −Inf or NaN);
// the next twelve the query scalars; the rest, cycled, the query codes
// (masked to MaxQ15), the row codes and the per-row terms.
func FuzzPrefixBound(f *testing.F) {
	f.Add([]byte{0, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 255, 0})
	f.Add([]byte{1, 40, 1, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 0x7f, 0xff, 255, 255, 0, 0})
	f.Add([]byte{1, 17, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 31, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 0x7f, 0xff, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 15 {
			t.Skip()
		}
		P := []int{32, 64}[data[0]&1]
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
		requirePrefixBounds(t, fmt.Sprintf("P=%d n=%d", P, n), b)
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
