package linalg

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestDotQ15ZeroAllocs pins the //drlint:hotpath contract of the exported
// integer-dot wrappers at runtime: validation, dispatch, and both kernel
// paths (assembly head + scalar tail, or all-generic) run without heap
// allocations — these are the innermost calls of the quantized scan, hit
// hundreds of times per block.
func TestDotQ15ZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	const d, pad = 166, 10
	stride := d + pad
	u := randCodesQ15(rng, d)
	c8 := randCodesU8(rng, d)
	rows8 := randCodesU8(rng, 7*stride+d)
	var out8 [8]int64
	var sink int64

	for name, call := range map[string]func(){
		"DotQ15U8":   func() { sink += DotQ15U8(u, c8) },
		"DotQ15U8x8": func() { DotQ15U8x8(u, rows8, stride, &out8) },
	} {
		if avg := testing.AllocsPerRun(500, call); avg != 0 {
			t.Errorf("%s does %.2f allocs/op, want 0", name, avg)
		}
	}
	_ = sink
}

// TestMulTIntoAllocatesOnePanel pins the kernel's memory contract: per
// worker, one packed panel of b (9·k float64) and nothing that scales with
// either operand's row count — packing a whole data tile per call showed up
// as resident memory in every caller. Up to 256 columns (mulTStackCols) the
// panel is on the worker's frame, so a caller that multiplies block by block
// (core.AnalyzeBasis, the self-join grid) allocates nothing per block; wider
// operands take the one panel from the heap.
func TestMulTIntoAllocatesOnePanel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(223))
	for _, c := range []struct {
		k      int
		allocs float64
		bytes  uint64
	}{{166, 0, 0}, {300, 1, 16 * 300 * 8}} {
		if !hasAVX2FMA {
			c.allocs, c.bytes = 0, 0 // the portable chain packs nothing
		}
		a, b := randDense(rng, 128, c.k), randDense(rng, 2048, c.k)
		dst := NewDense(128, 2048)
		if avg := testing.AllocsPerRun(5, func() { MulTInto(dst, a, b) }); avg > c.allocs {
			t.Errorf("k=%d: MulTInto does %.2f allocs/op, want at most %.0f", c.k, avg, c.allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MulTInto(dst, a, b)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.bytes {
			t.Errorf("k=%d: MulTInto allocated %d bytes, want at most %d", c.k, got, c.bytes)
		}
	}
}

// TestFirstBelowZeroAllocs pins the scan kernels' entry points: FirstBelow's
// dispatch, assembly head and scalar tail, and SelfJoin.Strip on the kernel
// and on its twin (MulTInto's row kernel on stack headers, and the Go mask
// loop), allocate nothing — they run once per tile row or strip, and
// FirstBelow once more per admitted candidate.
func TestFirstBelowZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	g, norms := randVec(rng, 261), randVec(rng, 261)
	x := denseOf(rng, 300, 16)
	sj := NewSelfJoin(x)
	xn, bounds := randVec(rng, 300), make([]float64, 300)
	strip, mask := make([]float64, StripRows*261), make([]uint64, StripRows*5)
	sink := 0
	for name, call := range map[string]func(){
		"FirstBelow":    func() { sink += FirstBelow(g, norms, 100, -100) },
		"Strip":         func() { sj.Strip(strip, mask, 8, StripRows, 32, 261, xn, bounds) },
		"Strip, 3 rows": func() { sj.Strip(strip, mask, 8, 3, 32, 261, xn, bounds) },
		"Strip, twin":   func() { withGeneric(func() { sj.Strip(strip, mask, 8, StripRows, 32, 261, xn, bounds) }) },
	} {
		if avg := testing.AllocsPerRun(500, call); avg != 0 {
			t.Errorf("%s does %.2f allocs/op, want 0", name, avg)
		}
	}
	_ = sink
}

// TestEigSymAllocs pins EigSym's allocation count at the paper's d = 166:
// 177 (the working copy, d and e, the sort permutation, and one column slice
// per eigenvector in sortEigen). reduce_pipeline's resident-memory reading
// depends on bytes allocated per op (ROADMAP 1(a)), so a change here is a
// change to that workload and has to be made on purpose. Twenty runs, so the
// runtime's own one-off allocations (the first GC cycle's workers, when this
// test runs first or alone) round away instead of reading as 178.
func TestEigSymAllocs(t *testing.T) {
	a := covShaped(166)
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := EigSym(a); err != nil {
			t.Fatal(err)
		}
	}); avg != 177 {
		t.Errorf("EigSym(166x166) does %.0f allocs/op, want 177", avg)
	}
}
