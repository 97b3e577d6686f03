package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It dispatches to an AVX2/FMA
// assembly kernel on capable amd64 hardware and to dotGeneric elsewhere;
// both are deterministic, but the fused path rounds differently in the last
// ulp or two.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return dotUnitary(a, b)
}

// dotGeneric is the portable dot kernel. Four independent accumulators
// break the loop-carried dependence of the naive `s += a[i]*b[i]` loop,
// whose add-latency chain caps it at a fraction of the FP ports' throughput.
// Both slices advance in 4-wide steps with the lengths in the loop
// condition — the shape the bounds-check prover eliminates completely
// (indexed `a[i+3]` forms leave IsInBounds in the loop); the accumulation
// order is unchanged, so results stay bit-identical.
func dotGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	s := (s0 + s2) + (s1 + s3)
	b = b[:len(a)]
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow and
// underflow by scaling.
func Norm2(v []float64) float64 {
	scale := 0.0
	ssq := 1.0
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place, through the same kernel dispatch as
// Dot.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	axpyUnitary(alpha, x, y)
}

// axpyGeneric is the portable axpy kernel (unrolled; elements are
// independent, so this is store-throughput bound rather than latency bound).
func axpyGeneric(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// ScaleVec multiplies v by s in place.
func ScaleVec(s float64, v []float64) {
	for i := range v {
		v[i] *= s
	}
}

// AddVec returns a + b as a new slice.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: AddVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Normalize scales v in place to unit Euclidean norm and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	ScaleVec(1/n, v)
	return n
}

// VecEqual reports whether a and b agree elementwise to within tol.
func VecEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// Outer returns the outer product a bᵀ as a len(a) x len(b) matrix.
func Outer(a, b []float64) *Dense {
	m := NewDense(len(a), len(b))
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := m.RawRow(i)
		for j, bv := range b {
			row[j] = av * bv
		}
	}
	return m
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dist2 length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
