package linalg

import (
	"math/rand"
	"testing"
)

// The integer Q15 kernels carry a stronger contract than the float family:
// the sum is exact integer arithmetic, so the dispatched assembly path
// must equal the generic path EXACTLY on every input — no ulp tolerance —
// including lengths that cross the in-assembly i32→i64 drain cadence
// (every 64 iterations = 1024 codes for the u8 kernel). intParityDims
// extends parityDims with those drain-crossing lengths.

var intParityDims = []int{1, 7, 16, 166, 1024, 1100, 2080}

func randCodesU8(rng *rand.Rand, d int) []uint8 {
	c := make([]uint8, d)
	for i := range c {
		c[i] = uint8(rng.Intn(256))
	}
	return c
}

func randCodesQ15(rng *rand.Rand, d int) []uint16 {
	u := make([]uint16, d)
	for i := range u {
		u[i] = uint16(rng.Intn(MaxQ15 + 1))
	}
	return u
}

func TestDotQ15FallbackExactlyMatchesGeneric(t *testing.T) {
	forceGeneric(t)
	rng := rand.New(rand.NewSource(101))
	for _, d := range intParityDims {
		for trial := 0; trial < 20; trial++ {
			u := randCodesQ15(rng, d)
			c8 := randCodesU8(rng, d)
			if got, want := dotQ15U8Unitary(u, c8), dotQ15U8Generic(u, c8); got != want {
				t.Fatalf("d=%d trial=%d: forced-generic dotQ15U8Unitary=%d, generic=%d", d, trial, got, want)
			}
		}
	}
}

func TestDotQ15DispatchExactlyMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, d := range intParityDims {
		for trial := 0; trial < 20; trial++ {
			u := randCodesQ15(rng, d)
			c8 := randCodesU8(rng, d)
			if got, want := DotQ15U8(u, c8), dotQ15U8Generic(u, c8); got != want {
				t.Fatalf("d=%d trial=%d: DotQ15U8=%d, generic=%d (integer kernels must be exact)", d, trial, got, want)
			}
		}
	}
}

// Extreme values: all-maximum query codes against all-maximum data codes
// maximize every pair sum and every accumulator, so this is the input
// that would expose an i32 overflow in the assembly's drain cadence.
func TestDotQ15ExtremeValuesExact(t *testing.T) {
	for _, d := range []int{16, 1024, 2080, 4096} {
		u := make([]uint16, d)
		c8 := make([]uint8, d)
		for i := range u {
			u[i] = MaxQ15
			c8[i] = 255
		}
		want8 := int64(d) * MaxQ15 * 255
		if got := DotQ15U8(u, c8); got != want8 {
			t.Fatalf("d=%d: DotQ15U8 all-max = %d, want %d", d, got, want8)
		}
		// All-zero query must yield exactly zero regardless of codes.
		for i := range u {
			u[i] = 0
		}
		if got := DotQ15U8(u, c8); got != 0 {
			t.Fatalf("d=%d: DotQ15U8 zero query = %d", d, got)
		}
	}
}

// The ×8 kernel must agree exactly with eight unitary calls over the same
// rows, for strides both equal to and larger than the dimension (the
// store's code stride is 16-byte aligned, so rows carry padding bytes the
// kernel must skip). Its assembly keeps i32 accumulators for the whole
// call (valid only to 1024 codes), so longer inputs must take the
// eight-unitary-dots fallback; intParityDims crosses that boundary.
func TestDotQ15x8MatchesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for _, d := range intParityDims {
		for _, pad := range []int{0, 3, 16} {
			stride := d + pad
			u := randCodesQ15(rng, d)
			rows := randCodesU8(rng, 7*stride+d)
			var got [8]int64
			DotQ15U8x8(u, rows, stride, &got)
			for r := 0; r < 8; r++ {
				if want := DotQ15U8(u, rows[r*stride:r*stride+d]); got[r] != want {
					t.Fatalf("d=%d pad=%d row=%d: DotQ15U8x8=%d, unitary=%d", d, pad, r, got[r], want)
				}
			}
		}
	}
}

// All-maximum inputs at the assembly's two boundaries: 256 codes is the
// last length allowed the i32 VPHADDD reduce (row totals reach
// 16·8·2·32767·255, within 1% of i32 max), 1024 the last allowed the
// single end-of-call drain; 1040 exercises the unitary fallback.
func TestDotQ15x8ExtremeValuesExact(t *testing.T) {
	for _, d := range []int{256, 272, 1024, 1040} {
		u := make([]uint16, d)
		rows := make([]uint8, 8*d)
		for i := range u {
			u[i] = MaxQ15
		}
		for i := range rows {
			rows[i] = 255
		}
		want := int64(d) * MaxQ15 * 255
		var got [8]int64
		DotQ15U8x8(u, rows, d, &got)
		for r := 0; r < 8; r++ {
			if got[r] != want {
				t.Fatalf("d=%d row=%d: DotQ15U8x8 all-max = %d, want %d", d, r, got[r], want)
			}
		}
	}
}

func TestDotQ15ValidationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("DotQ15U8 length mismatch", func() {
		DotQ15U8(make([]uint16, 3), make([]uint8, 4))
	})
	mustPanic("DotQ15U8x8 short stride", func() {
		var out [8]int64
		DotQ15U8x8(make([]uint16, 16), make([]uint8, 128), 8, &out)
	})
	mustPanic("DotQ15U8x8 short rows", func() {
		var out [8]int64
		DotQ15U8x8(make([]uint16, 16), make([]uint8, 100), 16, &out)
	})
}

// Benchmarks at the dimensions of the kernel table in EXPERIMENTS.md:
// d=166 (musk), d=64 (reduced), d=16 (deep-reduced). The float Dot166
// counterpart lives in the neighboring benchmark file.

func benchDotQ15U8(b *testing.B, d int) {
	rng := rand.New(rand.NewSource(111))
	u, c := randCodesQ15(rng, d), randCodesU8(rng, d)
	b.SetBytes(int64(d))
	var s int64
	for i := 0; i < b.N; i++ {
		s += DotQ15U8(u, c)
	}
	benchSinkInt = s
}

func BenchmarkDotQ15U8_16(b *testing.B)  { benchDotQ15U8(b, 16) }
func BenchmarkDotQ15U8_64(b *testing.B)  { benchDotQ15U8(b, 64) }
func BenchmarkDotQ15U8_166(b *testing.B) { benchDotQ15U8(b, 166) }

// Per-call = 8 rows at the store's code stride; the in-cache figure here
// understates the kernel's real advantage, which is memory-level
// parallelism on uncached sweeps.
func BenchmarkDotQ15U8x8_166(b *testing.B) {
	rng := rand.New(rand.NewSource(119))
	d, stride := 166, 176
	u := randCodesQ15(rng, d)
	rows := randCodesU8(rng, 7*stride+d)
	b.SetBytes(8 * int64(d))
	var out [8]int64
	var s int64
	for i := 0; i < b.N; i++ {
		DotQ15U8x8(u, rows, stride, &out)
		s += out[0] + out[7]
	}
	benchSinkInt = s
}

var benchSinkInt int64

// The multi-row unitary dispatcher (the asm stub's Go-side entry point)
// must match its generic twin exactly with the dispatch flag forced off.
func TestDotQ15x8UnitaryForcedGenericParity(t *testing.T) {
	forceGeneric(t)
	rng := rand.New(rand.NewSource(137))
	for _, d := range intParityDims {
		stride := d + 3
		u := randCodesQ15(rng, d)
		rows := randCodesU8(rng, 7*stride+d)
		var got, want [8]int64
		dotQ15U8x8Unitary(u, rows, stride, &got)
		dotQ15U8x8Generic(u, rows, stride, &want)
		if got != want {
			t.Fatalf("d=%d: forced-generic dotQ15U8x8Unitary=%v, generic=%v", d, got, want)
		}
	}
}

// Beyond q15x8MaxLen the dispatcher leaves the ×8 assembly body for eight
// unitary dots (the path that used to split into two ×4 calls): 1040 is
// the first 16-aligned length past the boundary, 2064 = 2·1024+16 crosses
// the unitary kernel's drain cadence twice and ends in a one-iteration
// block. Random and all-maximum rows, padded and unpadded strides.
func TestDotQ15x8LongInputsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for _, d := range []int{1040, 2064} {
		for _, pad := range []int{0, 16} {
			stride := d + pad
			u := randCodesQ15(rng, d)
			rows := randCodesU8(rng, 7*stride+d)
			for _, extreme := range []bool{false, true} {
				if extreme {
					for i := range u {
						u[i] = MaxQ15
					}
					for i := range rows {
						rows[i] = 255
					}
				}
				var got, want [8]int64
				DotQ15U8x8(u, rows, stride, &got)
				dotQ15U8x8Generic(u, rows, stride, &want)
				if got != want {
					t.Fatalf("d=%d pad=%d extreme=%v: DotQ15U8x8=%v, generic=%v", d, pad, extreme, got, want)
				}
			}
		}
	}
}
