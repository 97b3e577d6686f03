package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/reduction"
)

// wellSeparated returns k tight clusters far apart plus their true
// assignment.
func wellSeparated(n, d, k int, seed int64) (*linalg.Dense, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = float64(c*100) + rng.NormFloat64()
		}
	}
	x := linalg.NewDense(n, d)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		for j := 0; j < d; j++ {
			x.Set(i, j, centers[c][j]+rng.NormFloat64()*0.5)
		}
	}
	return x, truth
}

func TestKMeansRecoversSeparatedClusters(t *testing.T) {
	x, truth := wellSeparated(300, 4, 3, 1)
	res, err := KMeans(x, KMeansConfig{K: 3, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The found partition must match the truth up to relabeling: points
	// with equal truth share a cluster, points with different truth don't.
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			same := truth[i] == truth[j]
			found := res.Assign[i] == res.Assign[j]
			if same != found {
				t.Fatalf("pair (%d,%d): truth same=%v, found same=%v", i, j, same, found)
			}
		}
	}
	for c, s := range res.Sizes {
		if s != 100 {
			t.Fatalf("cluster %c size %d", c, s)
		}
	}
	if res.Iterations < 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestKMeansValidation(t *testing.T) {
	x := linalg.NewDense(5, 2)
	if _, err := KMeans(x, KMeansConfig{K: 0}); err == nil {
		t.Fatalf("K=0 accepted")
	}
	if _, err := KMeans(x, KMeansConfig{K: 6}); err == nil {
		t.Fatalf("K>n accepted")
	}
}

func TestKMeansK1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := linalg.NewDense(50, 3)
	for i := 0; i < 50; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.NormFloat64()+7)
		}
	}
	res, err := KMeans(x, KMeansConfig{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Single centroid = column means.
	for j := 0; j < 3; j++ {
		col := x.Col(j)
		mean := 0.0
		for _, v := range col {
			mean += v
		}
		mean /= 50
		if math.Abs(res.Centroids.At(0, j)-mean) > 1e-9 {
			t.Fatalf("centroid[%d] = %v, want %v", j, res.Centroids.At(0, j), mean)
		}
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	// All points identical: must terminate with zero inertia.
	x := linalg.NewDense(20, 2)
	for i := 0; i < 20; i++ {
		x.Set(i, 0, 3)
		x.Set(i, 1, 4)
	}
	res, err := KMeans(x, KMeansConfig{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("inertia = %v", res.Inertia)
	}
}

func TestKMeansDeterministicPerSeed(t *testing.T) {
	x, _ := wellSeparated(120, 3, 4, 9)
	a, _ := KMeans(x, KMeansConfig{K: 4, Seed: 7})
	b, _ := KMeans(x, KMeansConfig{K: 4, Seed: 7})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("same seed produced different assignments")
		}
	}
}

func TestKMeansInertiaNonIncreasingInK(t *testing.T) {
	// Property: best-of-restarts inertia should not grow when K increases.
	x, _ := wellSeparated(200, 4, 4, 11)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		res, err := KMeans(x, KMeansConfig{K: k, Seed: 3, Restarts: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.001 {
			t.Fatalf("inertia grew from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestKMeansAssignmentsAreNearest(t *testing.T) {
	// Property: on convergence, every point is assigned to its nearest
	// centroid.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		d := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		x := linalg.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		res, err := KMeans(x, KMeansConfig{K: k, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			best := 0
			bestD := math.Inf(1)
			for c := 0; c < k; c++ {
				if dd := sqDist(x.RawRow(i), res.Centroids.RawRow(c)); dd < bestD {
					best, bestD = c, dd
				}
			}
			if sq := sqDist(x.RawRow(i), res.Centroids.RawRow(res.Assign[i])); sq > bestD+1e-9 {
				_ = best
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouette(t *testing.T) {
	x, truth := wellSeparated(90, 3, 3, 13)
	// True clustering: silhouette near 1.
	if s := Silhouette(x, truth, 3); s < 0.9 {
		t.Fatalf("true clustering silhouette = %v", s)
	}
	// Random assignment: silhouette near 0 or negative.
	rng := rand.New(rand.NewSource(4))
	random := make([]int, 90)
	for i := range random {
		random[i] = rng.Intn(3)
	}
	if s := Silhouette(x, random, 3); s > 0.3 {
		t.Fatalf("random clustering silhouette = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched lengths must panic")
		}
	}()
	Silhouette(x, truth[:10], 3)
}

func TestFitLocalOnSubspaceMixture(t *testing.T) {
	ds, err := synthetic.SubspaceMixture(synthetic.SubspaceMixtureConfig{
		Name: "mix", N: 400, Dims: 30, Clusters: 4, LatentPerCluster: 3,
		ConceptStrength: 3, ClassSeparation: 1.5, CenterSpread: 8,
		NoiseStdDev: 1.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := FitLocal(ds.X, LocalConfig{
		Clusters: 4, Ordering: reduction.ByEigenvalue, MaxComponents: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every cluster got members and a small local subspace.
	dims := lr.Dims()
	for c, k := range dims {
		if len(lr.Members[c]) == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		if k < 1 || k > 6 {
			t.Fatalf("cluster %d retained %d dims", c, k)
		}
	}
	// Local reduced search beats a single global reduction of the same
	// total aggressiveness (the §3.1 claim).
	p, err := reduction.Fit(ds.X, reduction.Options{})
	if err != nil {
		t.Fatal(err)
	}
	globalK := 0
	for _, k := range dims {
		if k > globalK {
			globalK = k
		}
	}
	global := p.Transform(ds.X, p.TopK(reduction.ByEigenvalue, globalK))
	globalAcc := accuracyOn(global, ds.Labels)
	localAcc := lr.Accuracy(ds, 3)
	if localAcc <= globalAcc {
		t.Fatalf("local %.3f not above global %.3f at comparable aggressiveness", localAcc, globalAcc)
	}
}

func accuracyOn(x *linalg.Dense, labels []int) float64 {
	matches, total := 0, 0
	for i := 0; i < x.Rows(); i++ {
		best := make([]int, 0, 3)
		bestD := make([]float64, 0, 3)
		for j := 0; j < x.Rows(); j++ {
			if j == i {
				continue
			}
			d := sqDist(x.RawRow(i), x.RawRow(j))
			if len(best) < 3 {
				best = append(best, j)
				bestD = append(bestD, d)
				continue
			}
			worst := 0
			for w := 1; w < 3; w++ {
				if bestD[w] > bestD[worst] {
					worst = w
				}
			}
			if d < bestD[worst] {
				best[worst] = j
				bestD[worst] = d
			}
		}
		for _, j := range best {
			total++
			if labels[j] == labels[i] {
				matches++
			}
		}
	}
	return float64(matches) / float64(total)
}

func TestFitLocalValidation(t *testing.T) {
	x := linalg.NewDense(10, 3)
	if _, err := FitLocal(x, LocalConfig{Clusters: 0}); err == nil {
		t.Fatalf("Clusters=0 accepted")
	}
}

func TestFitLocalSmallClustersFallBackToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := linalg.NewDense(12, 4)
	for i := 0; i < 12; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	lr, err := FitLocal(x, LocalConfig{Clusters: 3, MinClusterSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for c := range lr.PCAs {
		if lr.PCAs[c] != nil {
			t.Fatalf("cluster %d should have fallen back to raw", c)
		}
		if len(lr.Members[c]) > 0 && lr.Reduced[c].Cols() != 4 {
			t.Fatalf("raw fallback changed dimensionality")
		}
	}
	// Search still works and returns exact raw-space neighbors.
	got := lr.KNN(x.Row(0), 3, 0)
	if len(got) != 3 {
		t.Fatalf("results = %v", got)
	}
}

func TestLocalKNNExcludeAndKBounds(t *testing.T) {
	ds, err := synthetic.SubspaceMixture(synthetic.SubspaceMixtureConfig{
		Name: "mix", N: 60, Dims: 8, Clusters: 2, LatentPerCluster: 2,
		ConceptStrength: 2, ClassSeparation: 1, CenterSpread: 5, NoiseStdDev: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := FitLocal(ds.X, LocalConfig{Clusters: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := lr.KNN(ds.X.Row(5), 4, 5)
	for _, nb := range res {
		if nb.Index == 5 {
			t.Fatalf("excluded point returned")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("k=0 must panic")
		}
	}()
	lr.KNN(ds.X.Row(0), 0, -1)
}

// TestLocalKNNMemberIsItsOwnNearest: the query is projected alone
// (TransformPoint), the members as a matrix (Transform); the two are the same
// chain, so every member scores exactly 0 against its own reduced row.
func TestLocalKNNMemberIsItsOwnNearest(t *testing.T) {
	ds, err := synthetic.SubspaceMixture(synthetic.SubspaceMixtureConfig{
		Name: "mix", N: 300, Dims: 24, Clusters: 3, LatentPerCluster: 3,
		ConceptStrength: 2, ClassSeparation: 1, CenterSpread: 5, NoiseStdDev: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := FitLocal(ds.X, LocalConfig{Clusters: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N(); i++ {
		if nb := lr.KNN(ds.X.RawRow(i), 1, -1)[0]; nb.Dist != 0 {
			t.Fatalf("member %d: nearest is row %d at distance %g, want itself (or a duplicate) at exactly 0", i, nb.Index, nb.Dist)
		}
	}
}

func TestSubspaceMixtureValidation(t *testing.T) {
	bad := []synthetic.SubspaceMixtureConfig{
		{N: 1, Dims: 4, Clusters: 1, LatentPerCluster: 1, ConceptStrength: 1},
		{N: 10, Dims: 0, Clusters: 1, LatentPerCluster: 1, ConceptStrength: 1},
		{N: 10, Dims: 4, Clusters: 0, LatentPerCluster: 1, ConceptStrength: 1},
		{N: 10, Dims: 4, Clusters: 1, LatentPerCluster: 5, ConceptStrength: 1},
		{N: 10, Dims: 4, Clusters: 1, LatentPerCluster: 1, ConceptStrength: 0},
		{N: 10, Dims: 4, Clusters: 1, LatentPerCluster: 1, ConceptStrength: 1, NoiseStdDev: -1},
	}
	for i, cfg := range bad {
		if _, err := synthetic.SubspaceMixture(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSubspaceMixtureStructure(t *testing.T) {
	ds, err := synthetic.SubspaceMixture(synthetic.SubspaceMixtureConfig{
		Name: "mix", N: 200, Dims: 20, Clusters: 4, LatentPerCluster: 2,
		ConceptStrength: 3, ClassSeparation: 1, CenterSpread: 10, NoiseStdDev: 0.3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.NumClasses() != 2 {
		t.Fatalf("classes = %d (labels must be within-cluster classes, not cluster ids)", ds.NumClasses())
	}
	// k-means with the true cluster count finds well-separated cells.
	km, err := KMeans(ds.X, KMeansConfig{K: 4, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := Silhouette(ds.X, km.Assign, 4); s < 0.3 {
		t.Fatalf("subspace clusters not separable: silhouette %v", s)
	}
}
