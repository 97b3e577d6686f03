package repro

import (
	"math"
	"testing"
)

// Exercises the extension surface of the public API end to end.

func TestPublicClusteringAndLocalReduction(t *testing.T) {
	ds, err := SubspaceMixture(SubspaceMixtureConfig{
		Name: "mix", N: 200, Dims: 16, Clusters: 4, LatentPerCluster: 2,
		ConceptStrength: 3, ClassSeparation: 1.5, CenterSpread: 8,
		NoiseStdDev: 0.8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	km, err := KMeans(ds.X, KMeansConfig{K: 4, Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := Silhouette(ds.X, km.Assign, 4); s < 0.2 {
		t.Fatalf("silhouette = %v", s)
	}
	lr, err := FitLocal(ds.X, LocalConfig{Clusters: 4, FixedComponents: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := lr.KNN(ds.X.Row(0), 3, 0)
	if len(res) != 3 {
		t.Fatalf("local knn = %v", res)
	}
	if acc := lr.Accuracy(ds, 3); acc < 0.5 {
		t.Fatalf("local accuracy = %v", acc)
	}
}

func TestPublicStreamingAccumulator(t *testing.T) {
	ds := UniformCube("u", 100, 5, 3)
	acc := NewCovarianceAccumulator(5)
	acc.AddMatrix(ds.X)
	p, err := acc.FitPCA()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Fit(ds.X, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Eigenvalues {
		if math.Abs(p.Eigenvalues[i]-batch.Eigenvalues[i]) > 1e-8 {
			t.Fatalf("streamed eigenvalue %d diverges", i)
		}
	}
}

func TestPublicIGridAndIDistance(t *testing.T) {
	ds := UniformCube("u", 300, 6, 4)
	g := BuildIGrid(ds.X, 6, 2)
	res, stats := g.KNN(ds.X.Row(0), 4)
	if len(res) != 4 || res[0].Index != 0 {
		t.Fatalf("igrid knn = %v", res)
	}
	if stats.PointsScanned <= 0 {
		t.Fatalf("igrid stats = %+v", stats)
	}
	id := BuildIDistance(ds.X, 5, 1)
	res2, _ := id.KNN(ds.X.Row(0), 4)
	if res2[0].Index != 0 || res2[0].Dist != 0 {
		t.Fatalf("idistance knn = %v", res2)
	}
	// Exactness: agree with brute force.
	want := Search(ds.X, ds.X.Row(0), 4, Euclidean{}, -1)
	for i := range want {
		if math.Abs(res2[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("idistance rank %d: %v vs %v", i, res2[i].Dist, want[i].Dist)
		}
	}
}

func TestPublicCorrelationDimension(t *testing.T) {
	ds := UniformCube("u", 500, 3, 5)
	est, err := CorrelationDimension(ds.X, FractalOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.D2 < 1.5 || est.D2 > 3.5 {
		t.Fatalf("uniform cube D2 = %v", est.D2)
	}
}

func TestPublicMatrixHelpers(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("MatrixFromRows wrong")
	}
	z := NewMatrix(2, 3)
	if z.Rows() != 2 || z.Cols() != 3 {
		t.Fatalf("NewMatrix wrong")
	}
	// Coherence helpers on a centered matrix.
	centered := MatrixFromRows([][]float64{{1, 0}, {-1, 0}})
	if got := DatasetCoherence(centered, []float64{1, 0}); math.Abs(got-0.6826894921370859) > 1e-12 {
		t.Fatalf("DatasetCoherence = %v", got)
	}
	ba := AnalyzeBasis(centered, MatrixFromRows([][]float64{{1, 0}, {0, 1}}), false)
	if len(ba.Reports) != 2 {
		t.Fatalf("AnalyzeBasis reports = %d", len(ba.Reports))
	}
	if GapCutoff([]float64{10, 9, 1}, 1, 3) != 2 {
		t.Fatalf("GapCutoff wrong")
	}
}

func TestPublicContrastAndAccuracyHelpers(t *testing.T) {
	ds := GaussianClustersHelper(t)
	full := DatasetAccuracy(ds)
	if full < 0.9 {
		t.Fatalf("clustered accuracy = %v", full)
	}
	if got := NeighborPrecision(ds.X, ds.X, 3, Euclidean{}); got != 1 {
		t.Fatalf("self precision = %v", got)
	}
	if got := PredictionAccuracy(ds.X, ds.Labels, PaperK, Manhattan{}); got < 0.9 {
		t.Fatalf("manhattan accuracy = %v", got)
	}
}

func TestPublicLSHApproximateSearch(t *testing.T) {
	ds, err := Generate(LatentFactorConfig{
		Name: "lsh", N: 1200, Dims: 24, Classes: 3,
		ConceptStrengths: []float64{5, 4, 3}, ClassSeparation: 2, NoiseStdDev: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildLSH(ds.X, LSHConfig{Tables: 8, Hashes: 6, Seed: 1})
	if ix.Dims() != 24 {
		t.Fatalf("Dims = %d", ix.Dims())
	}
	q := ds.X.Row(7)
	exact := Search(ds.X, q, 10, Euclidean{}, -1)
	approx, stats := ix.KNNApprox(q, 10, 16)
	if r := Recall(approx, exact); r < 0.5 {
		t.Fatalf("recall = %v", r)
	}
	if stats.BucketsProbed != 8*16 {
		t.Fatalf("BucketsProbed = %d", stats.BucketsProbed)
	}
	if stats.CandidateSize == 0 || stats.CandidateSize != stats.PointsScanned {
		t.Fatalf("candidate accounting: %+v", stats)
	}
	if frac := ScanFraction(stats, ds.N()); frac <= 0 || frac > 1 {
		t.Fatalf("scan fraction = %v", frac)
	}
	// Batch and serial answers agree; parallel ground truth matches serial.
	batch, _ := ix.KNNApproxSet(ds.X, 5, 4)
	single, _ := ix.KNNApprox(ds.X.RawRow(3), 5, 4)
	for i := range single {
		if batch[3][i] != single[i] {
			t.Fatalf("batch result differs at rank %d", i)
		}
	}
	par := SearchSetBatch(ds.X, ds.X, 3, Euclidean{}, true)
	ser := SearchSet(ds.X, ds.X, 3, Euclidean{}, true)
	for i := range ser {
		for j := range ser[i] {
			if par[i][j] != ser[i][j] {
				t.Fatalf("parallel search differs at query %d rank %d", i, j)
			}
		}
	}
	if mr := MeanRecall(par, ser); mr != 1 {
		t.Fatalf("MeanRecall of identical workloads = %v", mr)
	}
}

// GaussianClustersHelper builds a tiny clustered set through the synthetic
// generator exposed in the facade's Generate path.
func GaussianClustersHelper(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(LatentFactorConfig{
		Name: "g", N: 120, Dims: 8, Classes: 2,
		ConceptStrengths: []float64{5}, ClassSeparation: 3, NoiseStdDev: 0.3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPublicBatchDistanceEngine(t *testing.T) {
	ds := GaussianClustersHelper(t)
	queries := ds.X.SliceRows([]int{0, 1, 2, 3, 4, 5, 6})
	batch := SearchSetBatch(ds.X, queries, 4, Euclidean{}, false)
	exact := SearchSet(ds.X, queries, 4, Euclidean{}, false)
	for i := range exact {
		for j := range exact[i] {
			if batch[i][j] != exact[i][j] {
				t.Fatalf("SearchSetBatch differs at query %d rank %d: %v vs %v",
					i, j, batch[i][j], exact[i][j])
			}
		}
	}
	d2 := PairwiseSq(ds.X, queries)
	if r, c := d2.Dims(); r != 7 || c != 120 {
		t.Fatalf("PairwiseSq dims %dx%d", r, c)
	}
	sq := SquaredEuclidean{}
	want := sq.Distance(queries.RawRow(2), ds.X.RawRow(9))
	if got := d2.At(2, 9); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("PairwiseSq[2][9] = %v, want %v", got, want)
	}
}
