package repro

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// These tests exercise the public facade end to end, as an adopting user
// would.

func TestPublicPipeline(t *testing.T) {
	ds := IonosphereLike(1)
	if ds.N() != 351 || ds.Dims() != 34 {
		t.Fatalf("dataset shape: %s", ds)
	}
	p, err := FitDataset(ds, Options{Scaling: ScalingStudentize, ComputeCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	reduced := p.ReduceDataset(ds, p.TopK(ByCoherence, 8), "reduced")
	if reduced.Dims() != 8 {
		t.Fatalf("reduced dims: %d", reduced.Dims())
	}
	full := DatasetAccuracy(ds)
	red := DatasetAccuracy(reduced)
	if red <= full {
		t.Fatalf("reduction did not improve accuracy: %.3f vs %.3f", red, full)
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	ds := UniformCube("u", 20, 4, 1)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "u", CSVOptions{LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !back.X.Equal(ds.X, 0) {
		t.Fatalf("round trip changed features")
	}
}

func TestPublicCoherenceClosedForm(t *testing.T) {
	// §3: axis vector on any point with a single nonzero coordinate → CF=1.
	x := []float64{5, 0, 0, 0}
	e := []float64{1, 0, 0, 0}
	if cf := CoherenceFactor(x, e); math.Abs(cf-1) > 1e-12 {
		t.Fatalf("CF = %v", cf)
	}
	if cp := CoherenceProbability(x, e); math.Abs(cp-0.6826894921370859) > 1e-12 {
		t.Fatalf("CP = %v", cp)
	}
}

func TestPublicSearchAndIndexesAgree(t *testing.T) {
	ds := UniformCube("u", 400, 6, 3)
	q := ds.Point(7)
	want := Search(ds.X, q, 5, Euclidean{}, -1)
	for name, idx := range map[string]Index{
		"kdtree": BuildKDTree(ds.X, 0),
		"vafile": BuildVAFile(ds.X, 5),
		"rtree":  BuildRTree(ds.X, 0),
	} {
		got, stats := idx.KNN(q, 5)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results", name, len(got))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%s: rank %d dist %v != %v", name, i, got[i].Dist, want[i].Dist)
			}
		}
		if stats.PointsScanned <= 0 {
			t.Fatalf("%s: no work reported", name)
		}
	}
}

func TestPublicGenerateValidates(t *testing.T) {
	if _, err := Generate(LatentFactorConfig{}); err == nil {
		t.Fatalf("zero config accepted")
	}
}

func TestPublicCorruptAndNoisySets(t *testing.T) {
	a, colsA := NoisyDataA(1)
	if a.Dims() != 34 || len(colsA) != 10 {
		t.Fatalf("noisy A: %s cols=%v", a, colsA)
	}
	b, colsB := NoisyDataB(1)
	if b.Dims() != 279 || len(colsB) != 10 {
		t.Fatalf("noisy B: %s cols=%v", b, colsB)
	}
	c := Corrupt(a, []int{0}, 2, 9)
	if c.N() != a.N() {
		t.Fatalf("corrupt changed size")
	}
}

func TestPublicSweepAndContrast(t *testing.T) {
	ds := MuskLike(1)
	p, err := FitDataset(ds, Options{Scaling: ScalingStudentize})
	if err != nil {
		t.Fatal(err)
	}
	curve := Sweep(ds, p, p.Order(ByEigenvalue), "eig", SweepConfig{Dims: []int{5, 20}})
	if len(curve.Points) != 2 || curve.Optimal().Accuracy <= 0.5 {
		t.Fatalf("sweep wrong: %+v", curve)
	}
	rep, err := RelativeContrast(ds.X, ds.X.SliceRows([]int{0, 1}), Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanRelativeContrast <= 0 {
		t.Fatalf("contrast: %+v", rep)
	}
}

// ExampleCoherenceFactor demonstrates the §3 closed form.
func ExampleCoherenceFactor() {
	// Along an axis vector, any point has coherence factor exactly 1:
	// its single contribution is its own standard deviation.
	x := []float64{3.7, -2, 5, 0.4}
	e := []float64{1, 0, 0, 0}
	fmt.Printf("CF = %.0f, P = %.4f\n", CoherenceFactor(x, e), CoherenceProbability(x, e))
	// Output: CF = 1, P = 0.6827
}

// ExampleFitDataset shows the paper's selection rule on a synthetic data
// set.
func ExampleFitDataset() {
	ds := IonosphereLike(1)
	p, _ := FitDataset(ds, Options{Scaling: ScalingStudentize, ComputeCoherence: true})
	reduced := p.ReduceDataset(ds, p.TopK(ByCoherence, 8), "reduced")
	fmt.Println(reduced.Dims(), "dims,", reduced.N(), "points")
	// Output: 8 dims, 351 points
}
