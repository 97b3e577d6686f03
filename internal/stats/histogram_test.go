package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0.5, 1, 3, 5, 7, 9, 9.9})
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	// Bins: [0,2) [2,4) [4,6) [6,8) [8,10].
	want := []int{2, 1, 1, 1, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d count = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-100)
	h.Add(100)
	h.Add(1) // exactly max lands in last bin
	if h.Counts[0] != 1 || h.Counts[3] != 2 {
		t.Fatalf("clamping failed: %v", h.Counts)
	}
}

func TestHistogramBinCenterAndDensity(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); got != 1 {
		t.Fatalf("BinCenter(0) = %v", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Fatalf("BinCenter(4) = %v", got)
	}
}

func TestHistogramInvalidConstruction(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins":  func() { NewHistogram(0, 1, 0) },
		"min >= max": func() { NewHistogram(1, 1, 3) },
		"nan add":    func() { NewHistogram(0, 1, 2).Add(math.NaN()) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestFromData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	h := FromData(xs, 21)
	if h.Total() != len(xs) {
		t.Fatalf("Total = %d", h.Total())
	}
	// A normal sample peaks near its mean (middle bins).
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	if mode := h.BinCenter(best); math.Abs(mode) > 0.6 {
		t.Fatalf("normal histogram mode = %v, expected near 0", mode)
	}
	// Degenerate constant data must not panic.
	hc := FromData([]float64{4, 4, 4}, 3)
	if hc.Total() != 3 {
		t.Fatalf("constant-data histogram total = %d", hc.Total())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for v := 0.5; v < 10; v++ { // one value per bin: 0.5, 1.5, ..., 9.5
		h.Add(v)
	}
	cases := []struct{ q, want float64 }{
		{0, 0.5},   // smallest non-empty bin
		{0.1, 0.5}, // cumulative 1/10 reached in bin 0
		{0.5, 4.5}, // median of ten evenly spread values
		{0.9, 8.5},
		{1, 9.5}, // largest value's bin
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	// A heavily skewed distribution: p50 in the hot bin, p99 in the tail.
	s := NewHistogram(0, 10, 10)
	for i := 0; i < 990; i++ {
		s.Add(1.5)
	}
	for i := 0; i < 10; i++ {
		s.Add(9.5)
	}
	if got := s.Quantile(0.5); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("skewed p50 = %v, want 1.5", got)
	}
	if got := s.Quantile(0.999); math.Abs(got-9.5) > 1e-12 {
		t.Fatalf("skewed p99.9 = %v, want 9.5", got)
	}
}

func TestHistogramQuantilePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	empty := NewHistogram(0, 1, 4)
	mustPanic("empty histogram", func() { empty.Quantile(0.5) })
	h := NewHistogram(0, 1, 4)
	h.Add(0.5)
	mustPanic("q < 0", func() { h.Quantile(-0.1) })
	mustPanic("q > 1", func() { h.Quantile(1.1) })
	mustPanic("q NaN", func() { h.Quantile(math.NaN()) })
}
