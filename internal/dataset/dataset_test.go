package dataset

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stats"
)

func smallSet(t *testing.T) *Dataset {
	t.Helper()
	x := linalg.FromRows([][]float64{
		{1, 10, 5},
		{2, 10, 6},
		{3, 10, 7},
		{4, 10, 8},
	})
	return MustNew("small", x, []int{0, 1, 0, 1})
}

func TestNewValidation(t *testing.T) {
	x := linalg.NewDense(2, 2)
	if _, err := New("bad", x, []int{0}); err == nil {
		t.Fatalf("expected label-count error")
	}
	if _, err := New("bad", x, []int{0, -1}); err == nil {
		t.Fatalf("expected negative-label error")
	}
	if _, err := New("ok", x, []int{0, 1}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBasicAccessors(t *testing.T) {
	d := smallSet(t)
	if d.N() != 4 || d.Dims() != 3 {
		t.Fatalf("N/Dims = %d/%d", d.N(), d.Dims())
	}
	if d.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d", d.NumClasses())
	}
	counts := d.ClassCounts()
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("ClassCounts = %v", counts)
	}
	p := d.Point(1)
	if !linalg.VecEqual(p, []float64{2, 10, 6}, 0) {
		t.Fatalf("Point(1) = %v", p)
	}
	p[0] = 99
	if d.X.At(1, 0) != 2 {
		t.Fatalf("Point must copy")
	}
	if s := d.String(); s == "" {
		t.Fatalf("empty String")
	}
}

func TestCloneIndependent(t *testing.T) {
	d := smallSet(t)
	d.ClassNames = []string{"a", "b"}
	d.FeatureNames = []string{"f0", "f1", "f2"}
	c := d.Clone()
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("Clone = %+v, want a copy of %+v", c, d)
	}
	c.X.Set(0, 0, -1)
	c.Labels[0] = 1
	if d.X.At(0, 0) != 1 || d.Labels[0] != 0 {
		t.Fatalf("Clone shares state")
	}
}

func TestWithMatrix(t *testing.T) {
	d := smallSet(t)
	m := linalg.NewDense(4, 2)
	r := d.WithMatrix("reduced", m)
	if r.Dims() != 2 || r.Labels[3] != 1 {
		t.Fatalf("WithMatrix wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("row mismatch must panic")
		}
	}()
	d.WithMatrix("bad", linalg.NewDense(3, 2))
}

func TestDropConstantColumns(t *testing.T) {
	d := smallSet(t) // column 1 is constant (10)
	reduced, keep := d.DropConstantColumns(1e-12)
	if reduced.Dims() != 2 {
		t.Fatalf("Dims after drop = %d", reduced.Dims())
	}
	if len(keep) != 2 || keep[0] != 0 || keep[1] != 2 {
		t.Fatalf("keep = %v", keep)
	}
	// No constant columns: same object back, identity column map.
	x := linalg.FromRows([][]float64{{1, 2}, {3, 4}})
	d2 := MustNew("v", x, []int{0, 1})
	same, keep2 := d2.DropConstantColumns(1e-12)
	if same != d2 {
		t.Fatalf("expected identical dataset when nothing dropped")
	}
	if len(keep2) != 2 {
		t.Fatalf("keep2 = %v", keep2)
	}
}

func TestStandardized(t *testing.T) {
	d := smallSet(t)
	s := d.Standardized()
	vars := stats.ColumnVariances(s.X)
	if math.Abs(vars[0]-1) > 1e-12 || math.Abs(vars[2]-1) > 1e-12 {
		t.Fatalf("standardized variances = %v", vars)
	}
	means := stats.ColumnMeans(s.X)
	for _, m := range means {
		if math.Abs(m) > 1e-12 {
			t.Fatalf("standardized means = %v", means)
		}
	}
	// Originals untouched.
	if d.X.At(0, 0) != 1 {
		t.Fatalf("Standardized mutated the original")
	}
}

func TestValidate(t *testing.T) {
	d := smallSet(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	bad := d.Clone()
	bad.X.Set(0, 0, math.NaN())
	if err := bad.Validate(); err == nil {
		t.Fatalf("NaN accepted")
	}
	bad2 := d.Clone()
	bad2.FeatureNames = []string{"only-one"}
	if err := bad2.Validate(); err == nil {
		t.Fatalf("feature-name mismatch accepted")
	}
	bad3 := d.Clone()
	bad3.ClassNames = []string{"a"}
	if err := bad3.Validate(); err == nil {
		t.Fatalf("class-name shortage accepted")
	}
}
