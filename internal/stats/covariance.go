package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
)

// ColumnMeans returns the mean of every column of the n x d data matrix x
// (rows are points).
func ColumnMeans(x *linalg.Dense) []float64 {
	n, d := x.Dims()
	means := make([]float64, d)
	// means[j] += v as an axpy with alpha 1: fma(1, v, s) is s + v rounded
	// once, the loop's sum, through the vector kernel.
	for i := 0; i < n; i++ {
		linalg.Axpy(1, x.RawRow(i), means)
	}
	for j := range means {
		means[j] /= float64(n)
	}
	return means
}

// ColumnVariances returns the population variance of every column of x.
func ColumnVariances(x *linalg.Dense) []float64 {
	n, d := x.Dims()
	means := ColumnMeans(x)
	vars := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		for j, v := range row {
			dv := v - means[j]
			vars[j] += dv * dv
		}
	}
	for j := range vars {
		vars[j] /= float64(n)
	}
	return vars
}

// Center returns a copy of x with the column means subtracted, along with
// the means that were removed.
func Center(x *linalg.Dense) (*linalg.Dense, []float64) {
	n, d := x.Dims()
	means := ColumnMeans(x)
	out := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		src := x.RawRow(i)
		dst := out.RawRow(i)
		for j := range src {
			dst[j] = src[j] - means[j]
		}
	}
	return out, means
}

// Standardize returns a copy of x with each column centered and scaled to
// unit population variance (the paper's "studentizing" of §2.2), plus the
// per-column means and standard deviations used. Columns whose variance is
// below eps are scaled by 1 (they carry no information; callers typically
// drop them beforehand — see DropConstantColumns).
func Standardize(x *linalg.Dense, eps float64) (out *linalg.Dense, means, sds []float64) {
	n, d := x.Dims()
	means = ColumnMeans(x)
	vars := ColumnVariances(x)
	sds = make([]float64, d)
	for j, v := range vars {
		if v <= eps {
			sds[j] = 1
		} else {
			sds[j] = math.Sqrt(v)
		}
	}
	out = linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		src := x.RawRow(i)
		dst := out.RawRow(i)
		for j := range src {
			dst[j] = (src[j] - means[j]) / sds[j]
		}
	}
	return out, means, sds
}

// CovarianceMatrix returns the d x d population covariance matrix of the
// n x d data matrix x (rows are points): C_ij = E[(X_i−μ_i)(X_j−μ_j)].
func CovarianceMatrix(x *linalg.Dense) *linalg.Dense {
	n, _ := x.Dims()
	if n < 2 {
		panic(fmt.Sprintf("stats: CovarianceMatrix requires >= 2 rows, got %d", n))
	}
	centered, _ := Center(x)
	// C = Zᵀ Z / n through the blocked syrk kernel, which accumulates each
	// C_ij once and mirrors it, so the result is exactly symmetric with no
	// post-hoc averaging.
	c := linalg.AtA(centered)
	c.Scale(1 / float64(n))
	return c
}

// CorrelationMatrix returns the d x d Pearson correlation matrix of x.
// Zero-variance columns produce zero correlation rows/columns (and a unit
// diagonal).
func CorrelationMatrix(x *linalg.Dense) *linalg.Dense {
	c := CovarianceMatrix(x)
	d := c.Rows()
	sds := make([]float64, d)
	for i := 0; i < d; i++ {
		sds[i] = math.Sqrt(c.At(i, i))
	}
	out := linalg.NewDense(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i == j {
				out.Set(i, j, 1)
				continue
			}
			den := sds[i] * sds[j]
			if den == 0 {
				continue
			}
			out.Set(i, j, c.At(i, j)/den)
		}
	}
	return out
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// Returns 0 if either input is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		panic("stats: Pearson requires at least 2 points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation between xs and ys, using
// average ranks for ties.
func Spearman(xs, ys []float64) float64 {
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based average ranks of xs (ties receive the mean of
// the ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		//drlint:ignore floatcmp tied ranks are exact duplicates by definition (Spearman averaging applies only to bit-identical values)
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
