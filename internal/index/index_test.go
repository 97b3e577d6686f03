package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/knn"
	"repro/internal/linalg"
)

func randPoints(rng *rand.Rand, n, d int) *linalg.Dense {
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Set(i, j, rng.Float64()*10)
		}
	}
	return m
}

// builders enumerates every index implementation under test.
var builders = map[string]func(*linalg.Dense) Index{
	"linear": func(m *linalg.Dense) Index { return NewLinearScan(m) },
	"kdtree": func(m *linalg.Dense) Index { return BuildKDTree(m, 4) },
	"vafile": func(m *linalg.Dense) Index { return BuildVAFile(m, 4) },
	"rtree":  func(m *linalg.Dense) Index { return BuildRTree(m, 4) },
	"idist":  func(m *linalg.Dense) Index { return BuildIDistance(m, 4, 1) },
}

func TestAllIndexesAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for _, dims := range []int{1, 2, 3, 8, 20} {
				data := randPoints(rng, 300, dims)
				idx := build(data)
				if idx.Dims() != dims {
					t.Fatalf("Dims() = %d, want %d", idx.Dims(), dims)
				}
				for trial := 0; trial < 15; trial++ {
					q := make([]float64, dims)
					for j := range q {
						q[j] = rng.Float64() * 10
					}
					k := 1 + rng.Intn(8)
					got, st := idx.KNN(q, k)
					want := knn.Search(data, q, k, knn.Euclidean{}, -1)
					if len(got) != len(want) {
						t.Fatalf("d=%d k=%d: got %d results, want %d", dims, k, len(got), len(want))
					}
					if st.PointsScanned <= 0 {
						t.Fatalf("d=%d k=%d: no work reported: %+v", dims, k, st)
					}
					for i := range got {
						if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
							t.Fatalf("d=%d k=%d rank %d: dist %v != %v", dims, k, i, got[i].Dist, want[i].Dist)
						}
					}
				}
			}
		})
	}
}

func TestIndexPropertyAgreement(t *testing.T) {
	// Property test across random sizes, dims, duplicates and ks.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		d := 1 + rng.Intn(6)
		data := linalg.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				// Coarse values force duplicates and ties.
				data.Set(i, j, float64(rng.Intn(5)))
			}
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = float64(rng.Intn(5))
		}
		k := 1 + rng.Intn(5)
		want := knn.Search(data, q, k, knn.Euclidean{}, -1)
		for _, build := range builders {
			got, _ := build(data).KNN(q, k)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKMoreThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randPoints(rng, 5, 3)
	q := []float64{1, 2, 3}
	for name, build := range builders {
		got, _ := build(data).KNN(q, 20)
		if len(got) != 5 {
			t.Fatalf("%s: k>n returned %d results", name, len(got))
		}
	}
}

func TestQueryValidationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randPoints(rng, 10, 3)
	for name, build := range builders {
		idx := build(data)
		for _, fn := range []func(){
			func() { idx.KNN([]float64{1}, 1) },
			func() { idx.KNN([]float64{1, 2, 3}, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: expected panic", name)
					}
				}()
				fn()
			}()
		}
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	// Many identical points must not break the splitter.
	data := linalg.NewDense(50, 2)
	for i := 0; i < 50; i++ {
		data.Set(i, 0, 1)
		data.Set(i, 1, 2)
	}
	data.Set(49, 0, 5) // one distinct point
	tree := BuildKDTree(data, 2)
	got, _ := tree.KNN([]float64{5, 2}, 1)
	if got[0].Index != 49 || got[0].Dist != 0 {
		t.Fatalf("duplicate-heavy tree wrong: %v", got)
	}
}

func TestKDTreePruningInLowDimensions(t *testing.T) {
	// In 2-D a kd-tree query must scan far fewer points than a full scan.
	rng := rand.New(rand.NewSource(4))
	data := randPoints(rng, 5000, 2)
	tree := BuildKDTree(data, 8)
	var total Stats
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 10, rng.Float64() * 10}
		_, st := tree.KNN(q, 3)
		total.Add(st)
	}
	frac := float64(total.PointsScanned) / float64(20*5000)
	if frac > 0.1 {
		t.Fatalf("2-D kd-tree scanned %.1f%% of points", frac*100)
	}
}

func TestKDTreePruningDegradesWithDimensionality(t *testing.T) {
	// The §1.1 phenomenon: the same tree on uniform data approaches a full
	// scan as dimensionality rises.
	rng := rand.New(rand.NewSource(5))
	scanFrac := func(d int) float64 {
		data := randPoints(rng, 2000, d)
		tree := BuildKDTree(data, 8)
		var total Stats
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.Float64() * 10
			}
			_, st := tree.KNN(q, 3)
			total.Add(st)
		}
		return float64(total.PointsScanned) / float64(10*2000)
	}
	low := scanFrac(2)
	high := scanFrac(40)
	if high < 4*low {
		t.Fatalf("pruning did not degrade: d=2 %.3f, d=40 %.3f", low, high)
	}
	if high < 0.5 {
		t.Fatalf("expected near-full scan at d=40, got %.3f", high)
	}
}

func TestVAFileRefinesFewVectors(t *testing.T) {
	// The VA-file's selling point: even in high dimensionality only a small
	// fraction of full vectors is refined.
	rng := rand.New(rand.NewSource(6))
	data := randPoints(rng, 3000, 30)
	va := BuildVAFile(data, 6)
	var total Stats
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		q := make([]float64, 30)
		for j := range q {
			q[j] = rng.Float64() * 10
		}
		_, st := va.KNN(q, 3)
		total.Add(st)
	}
	if frac := float64(total.PointsScanned) / float64(trials*3000); frac > 0.2 {
		t.Fatalf("va-file refined %.1f%% of vectors", frac*100)
	}
	// Approximation scan always touches every record.
	if total.NodesVisited != trials*3000 {
		t.Fatalf("NodesVisited = %d, want %d", total.NodesVisited, trials*3000)
	}
}

func TestVAFileBitsValidation(t *testing.T) {
	data := linalg.NewDense(2, 2)
	for _, bits := range []int{0, 9, -1} {
		bits := bits
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bits=%d must panic", bits)
				}
			}()
			BuildVAFile(data, bits)
		}()
	}
}

func TestVAFileConstantDimension(t *testing.T) {
	data := linalg.FromRows([][]float64{{1, 7}, {2, 7}, {3, 7}})
	va := BuildVAFile(data, 3)
	got, _ := va.KNN([]float64{2.1, 7}, 1)
	if got[0].Index != 1 {
		t.Fatalf("constant-dim va-file wrong: %v", got)
	}
}

func TestRTreeStatsPruneInLowDim(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := randPoints(rng, 4000, 2)
	rt := BuildRTree(data, 16)
	var total Stats
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 10, rng.Float64() * 10}
		_, st := rt.KNN(q, 3)
		total.Add(st)
	}
	if frac := float64(total.PointsScanned) / float64(20*4000); frac > 0.1 {
		t.Fatalf("2-D r-tree scanned %.1f%% of points", frac*100)
	}
}

func TestRTreeSinglePointAndOneDim(t *testing.T) {
	data := linalg.FromRows([][]float64{{3}})
	rt := BuildRTree(data, 4)
	got, _ := rt.KNN([]float64{0}, 1)
	if got[0].Index != 0 || math.Abs(got[0].Dist-3) > 1e-12 {
		t.Fatalf("single point result: %v", got)
	}
}

func TestScanFraction(t *testing.T) {
	if got := ScanFraction(Stats{PointsScanned: 50}, 200); got != 0.25 {
		t.Fatalf("ScanFraction = %v", got)
	}
	if got := ScanFraction(Stats{PointsScanned: 50}, 0); got != 0 {
		t.Fatalf("ScanFraction with zero total = %v", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{NodesVisited: 1, PointsScanned: 2, BucketsProbed: 3, CandidateSize: 4}
	a.Add(Stats{NodesVisited: 3, PointsScanned: 4, BucketsProbed: 5, CandidateSize: 6})
	if a.NodesVisited != 4 || a.PointsScanned != 6 || a.BucketsProbed != 8 || a.CandidateSize != 10 {
		t.Fatalf("Stats.Add = %+v", a)
	}
}

func TestExactIndexesLeaveApproxFieldsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := randPoints(rng, 80, 4)
	for _, ix := range []Index{BuildKDTree(data, 4), BuildVAFile(data, 5), BuildRTree(data, 6)} {
		_, st := ix.KNN(data.Row(1), 3)
		if st.BucketsProbed != 0 || st.CandidateSize != 0 {
			t.Fatalf("exact index reported approx stats: %+v", st)
		}
	}
}

func TestDefaultCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := randPoints(rng, 100, 3)
	// Zero / negative capacities select defaults without panicking.
	if got, _ := BuildKDTree(data, 0).KNN(data.Row(0), 1); got[0].Index != 0 {
		t.Fatalf("kdtree default leaf size broken")
	}
	if got, _ := BuildRTree(data, 0).KNN(data.Row(0), 1); got[0].Index != 0 {
		t.Fatalf("rtree default fanout broken")
	}
}
