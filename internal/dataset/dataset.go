// Package dataset provides the data-handling substrate: an in-memory
// labelled data set abstraction, a CSV loader for real data, and
// (in the synthetic subpackage) generators that stand in for the UCI data
// sets used by the paper.
//
// A Dataset couples an n x d feature matrix with an integer class label per
// row. The label is the "semantic variable" of the paper's feature-stripping
// methodology: it is never part of the feature matrix, and similarity search
// quality is judged by how often a point's nearest neighbors share its label.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Dataset is an immutable-by-convention labelled point set. Rows of X are
// points; Labels[i] is the class of row i.
type Dataset struct {
	// Name identifies the data set in reports.
	Name string
	// X is the n x d feature matrix (rows are points).
	X *linalg.Dense
	// Labels holds the class index for every row (len = n).
	Labels []int
	// ClassNames optionally maps class indices to names.
	ClassNames []string
	// FeatureNames optionally names the d features.
	FeatureNames []string
}

// New validates and constructs a Dataset.
func New(name string, x *linalg.Dense, labels []int) (*Dataset, error) {
	n, _ := x.Dims()
	if len(labels) != n {
		return nil, fmt.Errorf("dataset: %d labels for %d rows", len(labels), n)
	}
	for i, l := range labels {
		if l < 0 {
			return nil, fmt.Errorf("dataset: negative label %d at row %d", l, i)
		}
	}
	return &Dataset{Name: name, X: x, Labels: labels}, nil
}

// MustNew is New but panics on error; for tests and generators with
// known-valid shapes.
func MustNew(name string, x *linalg.Dense, labels []int) *Dataset {
	d, err := New(name, x, labels)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of points.
func (d *Dataset) N() int { return d.X.Rows() }

// Dims returns the ambient dimensionality.
func (d *Dataset) Dims() int { return d.X.Cols() }

// Point returns row i as a fresh slice.
func (d *Dataset) Point(i int) []float64 { return d.X.Row(i) }

// NumClasses returns 1 + the maximum label (0 for an empty set).
func (d *Dataset) NumClasses() int {
	max := -1
	for _, l := range d.Labels {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// ClassCounts returns the number of points in each class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for _, l := range d.Labels {
		counts[l]++
	}
	return counts
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	labels := make([]int, len(d.Labels))
	copy(labels, d.Labels)
	out := &Dataset{Name: d.Name, X: d.X.Clone(), Labels: labels}
	if d.ClassNames != nil {
		out.ClassNames = append([]string(nil), d.ClassNames...)
	}
	if d.FeatureNames != nil {
		out.FeatureNames = append([]string(nil), d.FeatureNames...)
	}
	return out
}

// WithMatrix returns a Dataset sharing this one's labels but with a new
// feature matrix (e.g. after projection). The row count must match.
func (d *Dataset) WithMatrix(name string, x *linalg.Dense) *Dataset {
	if x.Rows() != d.N() {
		panic(fmt.Sprintf("dataset: WithMatrix row mismatch %d vs %d", x.Rows(), d.N()))
	}
	return &Dataset{Name: name, X: x, Labels: d.Labels, ClassNames: d.ClassNames}
}

// DropConstantColumns removes features whose population variance is below
// eps (the paper: "if the initial variance is zero along any dimension, then
// that dimension may be discarded"). It returns the reduced data set and the
// indices of the retained columns. If every column is retained the receiver
// is returned unchanged.
func (d *Dataset) DropConstantColumns(eps float64) (*Dataset, []int) {
	vars := stats.ColumnVariances(d.X)
	var keep []int
	for j, v := range vars {
		if v > eps {
			keep = append(keep, j)
		}
	}
	if len(keep) == d.Dims() {
		all := make([]int, d.Dims())
		for i := range all {
			all[i] = i
		}
		return d, all
	}
	if len(keep) == 0 {
		panic("dataset: all columns are constant")
	}
	out := &Dataset{Name: d.Name, X: d.X.SliceCols(keep), Labels: d.Labels, ClassNames: d.ClassNames}
	if d.FeatureNames != nil {
		names := make([]string, len(keep))
		for k, j := range keep {
			names[k] = d.FeatureNames[j]
		}
		out.FeatureNames = names
	}
	return out, keep
}

// Standardized returns a copy whose columns are centered and scaled to unit
// variance (the paper's studentization, §2.2).
func (d *Dataset) Standardized() *Dataset {
	x, _, _ := stats.Standardize(d.X, 1e-12)
	return &Dataset{Name: d.Name + " (scaled)", X: x, Labels: d.Labels, ClassNames: d.ClassNames, FeatureNames: d.FeatureNames}
}

// Validate checks internal consistency and that no feature is NaN or Inf.
func (d *Dataset) Validate() error {
	n, dims := d.X.Dims()
	if len(d.Labels) != n {
		return fmt.Errorf("dataset %q: %d labels for %d rows", d.Name, len(d.Labels), n)
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != dims {
		return fmt.Errorf("dataset %q: %d feature names for %d dims", d.Name, len(d.FeatureNames), dims)
	}
	nc := d.NumClasses()
	if d.ClassNames != nil && len(d.ClassNames) < nc {
		return fmt.Errorf("dataset %q: %d class names for %d classes", d.Name, len(d.ClassNames), nc)
	}
	for i := 0; i < n; i++ {
		for _, v := range d.X.RawRow(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset %q: non-finite value in row %d", d.Name, i)
			}
		}
	}
	return nil
}

// String summarizes the data set.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s: %d points, %d dims, %d classes", d.Name, d.N(), d.Dims(), d.NumClasses())
}
