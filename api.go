// Package repro is the public API of coherence-aware dimensionality
// reduction for high-dimensional similarity search, reproducing
//
//	Charu C. Aggarwal, "On the Effects of Dimensionality Reduction on
//	High Dimensional Similarity Search", PODS 2001.
//
// The library covers the full pipeline the paper evaluates:
//
//   - labelled data sets (a CSV loader plus synthetic generators that
//     stand in for the paper's UCI workloads),
//   - PCA with covariance or correlation (studentized) normalization,
//   - the paper's coherence model — per-direction coherence factors and
//     probabilities that separate semantic concepts from noise,
//   - component-selection strategies (eigenvalue order, coherence order,
//     thresholding, energy targets),
//   - exact k-NN search with several metrics and three partition indexes
//     (k-d tree, VA-file, R-tree) with pruning statistics,
//   - the feature-stripping evaluation harness used for every figure.
//
// Quickstart:
//
//	ds := repro.IonosphereLike(1)
//	p, _ := repro.Fit(ds.X, repro.Options{
//		Scaling:          repro.ScalingStudentize,
//		ComputeCoherence: true,
//	})
//	comps := p.TopK(repro.ByCoherence, 10)     // the paper's selection rule
//	reduced := p.ReduceDataset(ds, comps, "reduced")
//	acc := repro.DatasetAccuracy(reduced)       // feature-stripped quality
//
// The experiment drivers that regenerate every table and figure live in
// internal/experiments and are runnable via cmd/experiments or the
// benchmarks in bench_test.go.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/synthetic"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/reduction"
)

// Matrix is a dense row-major matrix; rows are points.
type Matrix = linalg.Dense

// NewMatrix creates an r x c zero matrix.
func NewMatrix(r, c int) *Matrix { return linalg.NewDense(r, c) }

// MatrixFromRows builds a matrix from a slice of equal-length rows.
func MatrixFromRows(rows [][]float64) *Matrix { return linalg.FromRows(rows) }

// Dataset is a labelled point set; Labels[i] is the class ("semantic
// variable") of row i and never participates in distances.
type Dataset = dataset.Dataset

// NewDataset validates and constructs a Dataset.
func NewDataset(name string, x *Matrix, labels []int) (*Dataset, error) {
	return dataset.New(name, x, labels)
}

// CSVOptions configures ReadCSV.
type CSVOptions = dataset.CSVOptions

// ReadCSV parses a labelled data set from CSV (see CSVOptions).
func ReadCSV(r io.Reader, name string, opts CSVOptions) (*Dataset, error) {
	return dataset.ReadCSV(r, name, opts)
}

// WriteCSV writes features plus a final class column.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// LatentFactorConfig describes a synthetic data set with low implicit
// dimensionality: x = S(Wz + ε) with a class-dependent latent z.
type LatentFactorConfig = synthetic.LatentFactorConfig

// Generate builds the data set described by the config.
func Generate(c LatentFactorConfig) (*Dataset, error) { return synthetic.Generate(c) }

// MuskLike generates the 476 x 166 analogue of UCI Musk used by the paper's
// Figures 3–5 and Table 1.
func MuskLike(seed int64) *Dataset { return synthetic.MuskLike(seed) }

// IonosphereLike generates the 351 x 34 analogue of UCI Ionosphere
// (Figures 6–8).
func IonosphereLike(seed int64) *Dataset { return synthetic.IonosphereLike(seed) }

// ArrhythmiaLike generates the 452 x 279 analogue of UCI Arrhythmia
// (Figures 9–11).
func ArrhythmiaLike(seed int64) *Dataset { return synthetic.ArrhythmiaLike(seed) }

// UniformCube generates uniform data in [-0.5, 0.5]^d — the paper's §3
// worst case for dimensionality reduction.
func UniformCube(name string, n, d int, seed int64) *Dataset {
	return synthetic.UniformCube(name, n, d, seed)
}

// Corrupt replaces the given feature columns with uniform noise of the given
// amplitude — the paper's noisy-data-set construction (§4.1).
func Corrupt(d *Dataset, cols []int, amplitude float64, seed int64) *Dataset {
	return synthetic.Corrupt(d, cols, amplitude, seed)
}

// NoisyDataA returns the paper's "noisy data set A" analogue (corrupted
// Ionosphere) along with the corrupted column indices.
func NoisyDataA(seed int64) (*Dataset, []int) { return synthetic.NoisyDataA(seed) }

// NoisyDataB returns the paper's "noisy data set B" analogue (corrupted
// Arrhythmia).
func NoisyDataB(seed int64) (*Dataset, []int) { return synthetic.NoisyDataB(seed) }

// PCA is a fitted principal-component transform retaining all components,
// their eigenvalues and (optionally) their coherence probabilities.
type PCA = reduction.PCA

// Options configure Fit.
type Options = reduction.Options

// Scaling selects the normalization applied before eigendecomposition.
type Scaling = reduction.Scaling

// Scaling modes: plain centering (covariance PCA) or per-dimension
// studentization (correlation PCA, the paper's §2.2 recommendation).
const (
	ScalingNone       = reduction.ScalingNone
	ScalingStudentize = reduction.ScalingStudentize
)

// Ordering ranks fitted components for selection.
type Ordering = reduction.Ordering

// Orderings: classical descending eigenvalue, or the paper's descending
// coherence probability.
const (
	ByEigenvalue = reduction.ByEigenvalue
	ByCoherence  = reduction.ByCoherence
)

// Fit computes the PCA of a data matrix (rows are points).
func Fit(x *Matrix, opts Options) (*PCA, error) { return reduction.Fit(x, opts) }

// FitDataset is Fit on a data set's feature matrix.
func FitDataset(d *Dataset, opts Options) (*PCA, error) { return reduction.FitDataset(d, opts) }

// GapCutoff finds the largest multiplicative gap in a descending sequence —
// the paper's "read the cut-off from the scatter plot" heuristic.
func GapCutoff(desc []float64, minKeep, maxKeep int) int {
	return reduction.GapCutoff(desc, minKeep, maxKeep)
}

// CoherenceFactor returns the paper's coherence factor of a centered point
// along a direction (§2): the deviation of the mean per-dimension
// contribution from the zero-mean null hypothesis, in standard errors.
func CoherenceFactor(x, e []float64) float64 { return core.CoherenceFactor(x, e) }

// CoherenceProbability returns 2Φ(CF)−1 ∈ [0,1) (Equation 2).
func CoherenceProbability(x, e []float64) float64 { return core.CoherenceProbability(x, e) }

// DatasetCoherence returns P(D,e), the mean coherence probability of a
// direction over a centered data matrix (Equation 3).
func DatasetCoherence(x *Matrix, e []float64) float64 { return core.DatasetCoherence(x, e) }

// BasisAnalysis reports eigenvalue and coherence per basis direction.
type BasisAnalysis = core.BasisAnalysis

// AnalyzeBasis evaluates every basis column (eigenvector) against a data
// matrix; set center unless x is already mean-centered.
func AnalyzeBasis(x *Matrix, basis *Matrix, center bool) *BasisAnalysis {
	return core.AnalyzeBasis(x, basis, center)
}

// Metric is a dissimilarity function over vectors.
type Metric = knn.Metric

// Neighbor is one k-NN result (row index and distance).
type Neighbor = knn.Neighbor

// Metrics. Minkowski with P < 1 gives the fractional metrics of the paper's
// reference [1].
type (
	// Euclidean is the L2 metric.
	Euclidean = knn.Euclidean
	// SquaredEuclidean is L2² — same rankings as L2 without the square root.
	SquaredEuclidean = knn.SquaredEuclidean
	// Manhattan is the L1 metric.
	Manhattan = knn.Manhattan
	// Chebyshev is the L∞ metric.
	Chebyshev = knn.Chebyshev
	// Minkowski is the general Lp metric (fractional p allowed).
	Minkowski = knn.Minkowski
	// Cosine is 1 − cos(a,b).
	Cosine = knn.Cosine
)

// Search returns the k nearest rows of data to query under metric m; pass
// exclude >= 0 to skip a row (leave-one-out).
func Search(data *Matrix, query []float64, k int, m Metric, exclude int) []Neighbor {
	return knn.Search(data, query, k, m, exclude)
}

// SearchSet returns the k nearest rows of data for every row of queries;
// pass selfExclude when data and queries share storage.
func SearchSet(data, queries *Matrix, k int, m Metric, selfExclude bool) [][]Neighbor {
	return knn.SearchSet(data, queries, k, m, selfExclude)
}

// RelativeContrast measures the Beyer-et-al. meaningfulness statistic
// (Dmax−Dmin)/Dmin of a query workload.
func RelativeContrast(data, queries *Matrix, m Metric) (knn.ContrastReport, error) {
	return knn.RelativeContrast(data, queries, m)
}

// Index is an exact Euclidean k-NN structure reporting per-query work.
type Index = index.Index

// IndexStats reports the work done by one k-NN query.
type IndexStats = index.Stats

// BuildKDTree builds a bucketed k-d tree (leafSize <= 0 for the default).
func BuildKDTree(data *Matrix, leafSize int) Index { return index.BuildKDTree(data, leafSize) }

// BuildVAFile builds a vector-approximation file with 2^bits cells per
// dimension.
func BuildVAFile(data *Matrix, bits int) Index { return index.BuildVAFile(data, bits) }

// BuildRTree bulk-loads an STR R-tree (fanout <= 0 for the default).
func BuildRTree(data *Matrix, fanout int) Index { return index.BuildRTree(data, fanout) }

// PaperK is the neighbor count the paper evaluates with (k = 3).
const PaperK = eval.PaperK

// PredictionAccuracy runs the paper's feature-stripping measurement: the
// fraction of k-NN results (over all leave-one-out queries) whose class
// matches the query's class.
func PredictionAccuracy(x *Matrix, labels []int, k int, m Metric) float64 {
	return eval.PredictionAccuracy(x, labels, k, m)
}

// DatasetAccuracy is PredictionAccuracy with the paper's defaults (k=3,
// Euclidean).
func DatasetAccuracy(d *Dataset) float64 { return eval.DatasetAccuracy(d) }

// NeighborPrecision is the mean overlap of reduced-space neighbors with
// full-space neighbors.
func NeighborPrecision(full, reduced *Matrix, k int, m Metric) float64 {
	return eval.NeighborPrecision(full, reduced, k, m)
}

// Curve is an accuracy-versus-dimensionality sweep result.
type Curve = eval.Curve

// SweepConfig configures Sweep.
type SweepConfig = eval.SweepConfig

// Sweep measures feature-stripped accuracy as a function of retained
// components, taking them in the given order.
func Sweep(ds *Dataset, p *PCA, order []int, label string, cfg SweepConfig) Curve {
	return eval.Sweep(ds, p, order, label, cfg)
}
