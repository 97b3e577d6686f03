// Package reduction implements the dimensionality-reduction layer: a PCA
// pipeline with optional studentization (covariance- vs correlation-matrix
// PCA, the paper's §2.2 scaling discussion), projection of data onto chosen
// component subsets, and the component-selection strategies the paper
// compares — eigenvalue ordering, coherence-probability ordering,
// eigenvalue thresholding (Table 1's "x%-thresholding") and energy targets.
package reduction

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// Scaling selects the data normalization applied before the covariance
// eigendecomposition.
type Scaling int

const (
	// ScalingNone centers the data but keeps original per-dimension scales
	// (classical covariance-matrix PCA).
	ScalingNone Scaling = iota
	// ScalingStudentize centers and scales every dimension to unit variance
	// (equivalent to correlation-matrix PCA) — the paper's recommended
	// normalization when dimensions use incomparable units (§2.2).
	ScalingStudentize
)

// String names the scaling mode.
func (s Scaling) String() string {
	switch s {
	case ScalingNone:
		return "none"
	case ScalingStudentize:
		return "studentize"
	default:
		return fmt.Sprintf("Scaling(%d)", int(s))
	}
}

// Options configure Fit.
type Options struct {
	// Scaling selects covariance (ScalingNone) or correlation
	// (ScalingStudentize) PCA.
	Scaling Scaling
	// ComputeCoherence additionally evaluates the coherence probability
	// P(D,e) of every component (needed by coherence-ordered selection and
	// the paper's scatter plots). It costs two matrix products per 256-row
	// block of the data (core.AnalyzeBasis), all components at once.
	ComputeCoherence bool
}

// PCA is a fitted principal-component transform. Components are ordered by
// descending eigenvalue; all d components are retained so that callers can
// choose any subset post hoc.
type PCA struct {
	// Mean is the per-dimension mean removed before projection.
	Mean []float64
	// Scale is the per-dimension divisor applied after centering (all ones
	// for ScalingNone).
	Scale []float64
	// Eigenvalues holds the data variance along each component, descending.
	Eigenvalues []float64
	// Components holds the principal directions as columns (d x d), column
	// i corresponding to Eigenvalues[i].
	Components *linalg.Dense
	// Coherence holds P(D, e_i) per component when requested (nil
	// otherwise).
	Coherence []float64
	// MeanFactor holds the average coherence factor per component when
	// coherence was requested (nil otherwise).
	MeanFactor []float64
	// Scaling records the normalization used at fit time.
	Scaling Scaling
}

// Fit computes the PCA of the n x d data matrix x (rows are points).
func Fit(x *linalg.Dense, opts Options) (*PCA, error) {
	n, d := x.Dims()
	if n < 2 {
		return nil, fmt.Errorf("reduction: Fit requires >= 2 points, got %d", n)
	}
	var work *linalg.Dense
	p := &PCA{Scaling: opts.Scaling}
	switch opts.Scaling {
	case ScalingNone:
		work, p.Mean = stats.Center(x)
		p.Scale = make([]float64, d)
		for j := range p.Scale {
			p.Scale[j] = 1
		}
	case ScalingStudentize:
		work, p.Mean, p.Scale = stats.Standardize(x, 1e-12)
	default:
		return nil, fmt.Errorf("reduction: unknown scaling %d", int(opts.Scaling))
	}

	cov := stats.CovarianceMatrix(work)
	ed, err := linalg.EigSym(cov)
	if err != nil {
		return nil, fmt.Errorf("reduction: eigendecomposition failed: %w", err)
	}
	vals, vecs := ed.Descending()
	// Numerical noise can push tiny eigenvalues slightly negative; clamp.
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	p.Eigenvalues = vals
	p.Components = vecs

	if opts.ComputeCoherence {
		ba := core.AnalyzeBasis(work, vecs, false)
		p.Coherence = ba.Coherences()
		p.MeanFactor = make([]float64, len(ba.Reports))
		for i, r := range ba.Reports {
			p.MeanFactor[i] = r.MeanFactor
		}
	}
	return p, nil
}

// FitDataset is Fit applied to a data set's feature matrix.
func FitDataset(d *dataset.Dataset, opts Options) (*PCA, error) {
	return Fit(d.X, opts)
}

// Dims returns the ambient dimensionality d of the fitted transform.
func (p *PCA) Dims() int { return len(p.Mean) }

// TotalVariance returns the sum of all eigenvalues (the trace of the
// covariance matrix of the normalized data).
func (p *PCA) TotalVariance() float64 { return stats.Sum(p.Eigenvalues) }

// EnergyFraction returns the fraction of total variance captured by the
// given component indices.
func (p *PCA) EnergyFraction(components []int) float64 {
	total := p.TotalVariance()
	if total == 0 {
		return 0
	}
	kept := 0.0
	for _, i := range components {
		kept += p.Eigenvalues[i]
	}
	return kept / total
}

// TransformPoint projects a single raw point onto the selected components.
// It is Transform on a one-row matrix: each score is the same product chain
// (linalg.MulTInto's definition) of the normalized point and the component,
// so a point projected alone equals, bit for bit, its row of a projected
// matrix.
func (p *PCA) TransformPoint(x []float64, components []int) []float64 {
	return p.Transform(linalg.NewDenseData(1, len(x), x), components).RawRow(0)
}

// Transform projects every row of the raw matrix x onto the selected
// components, returning an n x len(components) score matrix: one normalized
// copy of x, one product. The number of allocations does not depend on n.
// (Normalizing 256 rows at a time into a reused block is ≈ 1 ms faster at
// 6598 x 166 and waits for ROADMAP 1(b): EXPERIMENTS.md, PR 22 "Second pass".)
func (p *PCA) Transform(x *linalg.Dense, components []int) *linalg.Dense {
	n, d := x.Dims()
	if d != len(p.Mean) {
		panic(fmt.Sprintf("reduction: matrix has %d dims, transform expects %d", d, len(p.Mean)))
	}
	if len(components) == 0 {
		panic("reduction: Transform with no components")
	}
	// The components as rows: the right-hand operand MulTInto takes.
	e := p.Components.SliceCols(components).T()
	z := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		zi := z.RawRow(i)
		for j, v := range x.RawRow(i) {
			zi[j] = (v - p.Mean[j]) / p.Scale[j]
		}
	}
	out := linalg.NewDense(n, len(components))
	linalg.MulTInto(out, z, e)
	return out
}

// TransformAll projects x onto every component (a pure rotation of the
// normalized data); column i corresponds to Eigenvalues[i]. Selecting a
// component subset afterwards is a column slice of this matrix, which is
// how sweep experiments evaluate many dimensionalities cheaply.
func (p *PCA) TransformAll(x *linalg.Dense) *linalg.Dense {
	all := make([]int, p.Dims())
	for i := range all {
		all[i] = i
	}
	return p.Transform(x, all)
}

// ReduceDataset projects a labelled data set onto the selected components,
// preserving labels.
func (p *PCA) ReduceDataset(d *dataset.Dataset, components []int, name string) *dataset.Dataset {
	return d.WithMatrix(name, p.Transform(d.X, components))
}
