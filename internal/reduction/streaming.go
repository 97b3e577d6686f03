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
// The accumulator supports point insertion, deletion (for sliding
// databases) and merging of independently-built accumulators (for
// partitioned ingest). All operations are O(d²) or better.
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

// Dims returns the dimensionality.
func (a *CovarianceAccumulator) Dims() int { return a.d }

// N returns the number of points currently accounted for.
func (a *CovarianceAccumulator) N() int { return a.n }

// Add inserts a point.
func (a *CovarianceAccumulator) Add(x []float64) {
	a.update(x, 1)
}

// Remove deletes a previously inserted point. The caller is responsible for
// only removing points that were added; the accumulator cannot verify this.
func (a *CovarianceAccumulator) Remove(x []float64) {
	if a.n == 0 {
		panic("reduction: Remove from empty accumulator")
	}
	a.update(x, -1)
}

func (a *CovarianceAccumulator) update(x []float64, sign float64) {
	if len(x) != a.d {
		panic(fmt.Sprintf("reduction: point has %d dims, accumulator %d", len(x), a.d))
	}
	a.n += int(sign)
	for i, v := range x {
		a.sum[i] += sign * v
		if v == 0 {
			continue
		}
		row := a.outer.RawRow(i)
		for j, w := range x {
			row[j] += sign * v * w
		}
	}
}

// AddMatrix inserts every row of x.
func (a *CovarianceAccumulator) AddMatrix(x *linalg.Dense) {
	for i := 0; i < x.Rows(); i++ {
		a.Add(x.RawRow(i))
	}
}

// AccumulateMatrix builds an accumulator over every row of x using the
// blocked AtA kernel for the second-moment matrix instead of AddMatrix's
// O(n·d²) scalar updates — the bulk-seeding path for serving engines that
// start drift tracking over an existing snapshot. The statistics equal
// AddMatrix's up to floating-point summation order (AtA accumulates
// column-blocked with FMA where available), which is immaterial for the
// decay heuristics built on top.
func AccumulateMatrix(x *linalg.Dense) *CovarianceAccumulator {
	n, d := x.Dims()
	a := NewCovarianceAccumulator(d)
	if n == 0 {
		return a
	}
	a.n = n
	a.outer = linalg.AtA(x)
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		for j, v := range row {
			a.sum[j] += v
		}
	}
	return a
}

// CapturedEnergy returns tr(BᵀCB)/tr(C): the fraction of the stream's
// current variance that lies inside the subspace spanned by the columns of
// basis (assumed orthonormal, e.g. leading PCA components). A basis fitted
// on a past snapshot captures its full energy target at fit time; as
// inserts and deletes drift the distribution, this fraction decays — the
// serving layer's online stand-in for the paper's P(D,e) loss-of-proximity
// lens, cheap enough (O(m·d²)) to evaluate periodically without touching
// the data. Returns 1 when the stream carries no variance. Requires at
// least 2 points.
func (a *CovarianceAccumulator) CapturedEnergy(basis *linalg.Dense) float64 {
	if basis.Rows() != a.d {
		panic(fmt.Sprintf("reduction: basis has %d rows, accumulator %d dims", basis.Rows(), a.d))
	}
	c := a.Covariance()
	total := c.Trace()
	if total <= 0 {
		return 1
	}
	captured := 0.0
	for j := 0; j < basis.Cols(); j++ {
		b := basis.Col(j)
		captured += linalg.Dot(b, c.MulVec(b))
	}
	return captured / total
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
