// Package eval implements the paper's §4 evaluation methodology: the
// feature-stripping quality measure (class-prediction accuracy of the k=3
// nearest neighbors found without the class variable), precision of reduced
// neighbors against full-dimensional neighbors, and accuracy-versus-
// retained-dimensionality sweep curves for any component ordering.
package eval

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/reduction"
)

// PaperK is the neighbor count used throughout the paper's evaluation
// ("prediction accuracy of k = 3 nearest neighbors").
const PaperK = 3

// PredictionAccuracy runs the feature-stripping measurement on a point
// matrix with class labels: every point queries for its k nearest neighbors
// among the other points, and the accuracy is the fraction of all retrieved
// neighbors (over all queries) whose class matches the query's class. The
// leave-one-out search is one knn.SearchSetBatch call — the GEMM engine for
// the Euclidean metrics, the parallel scalar scan for the rest — whose
// answers are SearchSet's, so the result is exact and deterministic.
func PredictionAccuracy(x *linalg.Dense, labels []int, k int, m knn.Metric) float64 {
	n := x.Rows()
	if len(labels) != n {
		panic(fmt.Sprintf("eval: %d labels for %d points", len(labels), n))
	}
	if k <= 0 {
		panic(fmt.Sprintf("eval: k=%d must be positive", k))
	}
	matches, total := 0, 0
	for i, res := range knn.SearchSetBatch(x, x, k, m, true) {
		total += len(res)
		for _, nb := range res {
			if labels[nb.Index] == labels[i] {
				matches++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(matches) / float64(total)
}

// DatasetAccuracy is PredictionAccuracy on a labelled data set with the
// paper's defaults (k = 3, Euclidean).
func DatasetAccuracy(d *dataset.Dataset) float64 {
	return PredictionAccuracy(d.X, d.Labels, PaperK, knn.Euclidean{})
}

// NeighborPrecision returns the mean overlap between each point's k nearest
// neighbors in the reduced space and in the reference (full) space — the
// paper's precision/recall with respect to the original nearest neighbors
// (with equal k on both sides, precision equals recall).
func NeighborPrecision(full, reduced *linalg.Dense, k int, m knn.Metric) float64 {
	if full.Rows() != reduced.Rows() {
		panic(fmt.Sprintf("eval: row mismatch %d vs %d", full.Rows(), reduced.Rows()))
	}
	a := knn.SearchSetBatch(full, full, k, m, true)
	b := knn.SearchSetBatch(reduced, reduced, k, m, true)
	sum := 0.0
	for i := range a {
		sum += knn.Overlap(a[i], b[i])
	}
	return sum / float64(len(a))
}

// CurvePoint is one sweep sample: accuracy using the first Dims components
// of an ordering.
type CurvePoint struct {
	Dims     int
	Accuracy float64
	// EnergyFraction is the fraction of total variance retained by the
	// selected components.
	EnergyFraction float64
	// Precision is the neighbor precision against the full-dimensional
	// data, when the sweep was configured to compute it (else NaN).
	Precision float64
}

// Curve is an accuracy-versus-dimensionality series — the data behind the
// paper's Figures 5, 8, 11, 13 and 15.
type Curve struct {
	// Label identifies the ordering/scaling variant.
	Label  string
	Points []CurvePoint
}

// Optimal returns the sweep point with maximum accuracy (the smallest
// dimensionality on ties — the paper prefers the most aggressive reduction
// among equals).
func (c Curve) Optimal() CurvePoint {
	if len(c.Points) == 0 {
		panic("eval: Optimal of empty curve")
	}
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		// Strictly better accuracy wins; an exact tie (>= once > has
		// failed) falls to the smaller dimensionality.
		if p.Accuracy > best.Accuracy || (p.Accuracy >= best.Accuracy && p.Dims < best.Dims) {
			best = p
		}
	}
	return best
}

// SweepConfig configures an accuracy sweep.
type SweepConfig struct {
	// K is the neighbor count (0 selects PaperK = 3).
	K int
	// Metric is the distance used in the reduced space (nil selects
	// Euclidean).
	Metric knn.Metric
	// Dims lists the dimensionalities to sample (nil selects
	// DefaultDimGrid over the full range).
	Dims []int
	// ComputePrecision additionally measures neighbor precision of every
	// sweep point against the full-dimensional normalized data.
	ComputePrecision bool
}

func (cfg *SweepConfig) withDefaults(d int) SweepConfig {
	out := *cfg
	if out.K == 0 {
		out.K = PaperK
	}
	if out.Metric == nil {
		out.Metric = knn.Euclidean{}
	}
	if out.Dims == nil {
		out.Dims = DefaultDimGrid(d, 16)
	}
	for _, k := range out.Dims {
		if k < 1 || k > d {
			panic(fmt.Sprintf("eval: sweep dimensionality %d out of [1,%d]", k, d))
		}
	}
	return out
}

// Sweep evaluates feature-stripped prediction accuracy as a function of the
// number of retained components, taking components in the given order
// (p.Order(reduction.ByEigenvalue) or p.Order(reduction.ByCoherence)).
// The data is rotated once; each sweep point is a column-prefix selection.
func Sweep(ds *dataset.Dataset, p *reduction.PCA, order []int, label string, cfg SweepConfig) Curve {
	c := cfg.withDefaults(ds.Dims())
	if len(order) != ds.Dims() {
		panic(fmt.Sprintf("eval: ordering has %d entries for %d components", len(order), ds.Dims()))
	}
	rotated := p.Transform(ds.X, order)
	curve := Curve{Label: label}
	for _, dims := range c.Dims {
		sub := rotated.SliceCols(prefix(dims))
		pt := CurvePoint{
			Dims:           dims,
			Accuracy:       PredictionAccuracy(sub, ds.Labels, c.K, c.Metric),
			EnergyFraction: p.EnergyFraction(order[:dims]),
			Precision:      math.NaN(),
		}
		if c.ComputePrecision {
			pt.Precision = NeighborPrecision(rotated, sub, c.K, c.Metric)
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve
}

func prefix(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// DefaultDimGrid returns up to `points` dimensionalities spanning [1, d]
// with geometric spacing (denser at the low end, where the paper's curves
// peak), always including 1 and d.
func DefaultDimGrid(d, points int) []int {
	if d < 1 {
		panic(fmt.Sprintf("eval: DefaultDimGrid d=%d", d))
	}
	if points < 2 || d <= points {
		out := make([]int, d)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	var out []int
	last := 0
	for i := 0; i < points; i++ {
		f := math.Pow(float64(d), float64(i)/float64(points-1))
		k := int(math.Round(f))
		if k <= last {
			k = last + 1
		}
		if k > d {
			k = d
		}
		out = append(out, k)
		last = k
		if k == d {
			break
		}
	}
	return out
}
