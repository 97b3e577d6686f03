package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{0, 0}, []float64{1, 1}, 0},
		{[]float64{-1, 1}, []float64{1, 1}, 0},
		{[]float64{2}, []float64{3}, 6},
	}
	for _, tc := range cases {
		if got := Dot(tc.a, tc.b); got != tc.want {
			t.Fatalf("Dot(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := Norm2(v); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2OverflowSafety(t *testing.T) {
	// Naive sum-of-squares would overflow; the scaled form must not.
	v := []float64{1e300, 1e300}
	want := 1e300 * math.Sqrt2
	if got := Norm2(v); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow-unsafe: got %v, want %v", got, want)
	}
	// Underflow side.
	u := []float64{1e-300, 1e-300}
	wantU := 1e-300 * math.Sqrt2
	if got := Norm2(u); math.Abs(got-wantU)/wantU > 1e-14 {
		t.Fatalf("Norm2 underflow-unsafe: got %v, want %v", got, wantU)
	}
}

func TestAxpyAndScale(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, y)
	if !VecEqual(y, []float64{3, 4, 5}, 0) {
		t.Fatalf("Axpy result %v", y)
	}
	Axpy(0, []float64{9, 9, 9}, y)
	if !VecEqual(y, []float64{3, 4, 5}, 0) {
		t.Fatalf("Axpy with alpha=0 modified y: %v", y)
	}
	ScaleVec(0.5, y)
	if !VecEqual(y, []float64{1.5, 2, 2.5}, 0) {
		t.Fatalf("ScaleVec result %v", y)
	}
}

func TestAddVec(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := AddVec(a, b); !VecEqual(got, []float64{4, 7}, 0) {
		t.Fatalf("AddVec = %v", got)
	}
}

func TestNormalizeAndUnit(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if math.Abs(n-5) > 1e-15 {
		t.Fatalf("Normalize returned %v, want 5", n)
	}
	if math.Abs(Norm2(v)-1) > 1e-15 {
		t.Fatalf("normalized vector has norm %v", Norm2(v))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatalf("Normalize(0) should return 0")
	}
}

func TestOuter(t *testing.T) {
	m := Outer([]float64{1, 2}, []float64{3, 4, 5})
	want := FromRows([][]float64{{3, 4, 5}, {6, 8, 10}})
	if !m.Equal(want, 0) {
		t.Fatalf("Outer = %v, want %v", m, want)
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2([]float64{0, 0}, []float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Dist2 = %v, want 5", got)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	// |a·b| <= ‖a‖‖b‖ for all vectors.
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		for _, v := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)*(1+1e-10)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = r.NormFloat64(), r.NormFloat64()
		}
		return Norm2(AddVec(a, b)) <= Norm2(a)+Norm2(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
