package reduction

import (
	"fmt"

	"repro/internal/linalg"
)

// CovarianceAccumulator maintains the sufficient statistics of a data
// stream — count, per-dimension sums and the matrix of second moments — so
// the PCA of a growing (dynamic) database can be refreshed without
// re-reading old points. This is the maintenance strategy of the paper's
// reference [17] (Ravi Kanth, Agrawal & Singh, "Dimensionality Reduction
// for Similarity Search in Dynamic Databases", SIGMOD 1998): accumulate,
// and recompute the transform when enough change has built up.
//
// The accumulator is insert-only: Add costs O(d²) per point, and FitPCA
// refits exactly — it equals a batch Fit with ScalingNone over every point
// added so far.
type CovarianceAccumulator struct {
	d     int
	n     int
	sum   []float64
	outer *linalg.Dense // Σ x xᵀ
}

// NewCovarianceAccumulator creates an accumulator for d-dimensional points.
func NewCovarianceAccumulator(d int) *CovarianceAccumulator {
	if d < 1 {
		panic(fmt.Sprintf("reduction: accumulator dims=%d", d))
	}
	return &CovarianceAccumulator{d: d, sum: make([]float64, d), outer: linalg.NewDense(d, d)}
}

// N returns the number of points currently accounted for.
func (a *CovarianceAccumulator) N() int { return a.n }

// Add inserts a point.
func (a *CovarianceAccumulator) Add(x []float64) {
	if len(x) != a.d {
		panic(fmt.Sprintf("reduction: point has %d dims, accumulator %d", len(x), a.d))
	}
	a.n++
	for i, v := range x {
		a.sum[i] += v
		if v == 0 {
			continue
		}
		row := a.outer.RawRow(i)
		for j, w := range x {
			row[j] += v * w
		}
	}
}

// AddMatrix inserts every row of x.
func (a *CovarianceAccumulator) AddMatrix(x *linalg.Dense) {
	for i := 0; i < x.Rows(); i++ {
		a.Add(x.RawRow(i))
	}
}

// Mean returns the current mean vector. Panics when empty.
func (a *CovarianceAccumulator) Mean() []float64 {
	if a.n == 0 {
		panic("reduction: Mean of empty accumulator")
	}
	out := make([]float64, a.d)
	for i, s := range a.sum {
		out[i] = s / float64(a.n)
	}
	return out
}

// Covariance returns the current population covariance matrix
// C = Σxxᵀ/n − μμᵀ, symmetrized against floating-point drift. Requires at
// least 2 points.
func (a *CovarianceAccumulator) Covariance() *linalg.Dense {
	if a.n < 2 {
		panic(fmt.Sprintf("reduction: Covariance of %d points", a.n))
	}
	mu := a.Mean()
	c := linalg.NewDense(a.d, a.d)
	inv := 1 / float64(a.n)
	for i := 0; i < a.d; i++ {
		src := a.outer.RawRow(i)
		dst := c.RawRow(i)
		for j := 0; j < a.d; j++ {
			dst[j] = src[j]*inv - mu[i]*mu[j]
		}
	}
	for i := 0; i < a.d; i++ {
		for j := i + 1; j < a.d; j++ {
			v := 0.5 * (c.At(i, j) + c.At(j, i))
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	return c
}

// FitPCA diagonalizes the current covariance and returns a PCA transform
// equivalent to refitting from scratch on all accumulated points with
// ScalingNone. Coherence probabilities need the raw points and are
// therefore not available on the streaming path; compute them on demand
// with core.AnalyzeBasis over whatever sample is retained.
func (a *CovarianceAccumulator) FitPCA() (*PCA, error) {
	cov := a.Covariance()
	ed, err := linalg.EigSym(cov)
	if err != nil {
		return nil, fmt.Errorf("reduction: streaming eigendecomposition: %w", err)
	}
	vals, vecs := ed.Descending()
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	scale := make([]float64, a.d)
	for i := range scale {
		scale[i] = 1
	}
	return &PCA{
		Mean:        a.Mean(),
		Scale:       scale,
		Eigenvalues: vals,
		Components:  vecs,
		Scaling:     ScalingNone,
	}, nil
}
