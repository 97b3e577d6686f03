package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestIDistanceValidation(t *testing.T) {
	data := linalg.NewDense(5, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("partitions=0 must panic")
		}
	}()
	BuildIDistance(data, 0, 1)
}

func TestIDistancePartitionsCappedAtN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randPoints(rng, 5, 2)
	id := BuildIDistance(data, 50, 1)
	if id.Partitions() > 5 {
		t.Fatalf("partitions = %d", id.Partitions())
	}
	got, _ := id.KNN(data.Row(0), 2)
	if got[0].Index != 0 || got[0].Dist != 0 {
		t.Fatalf("self query wrong: %v", got)
	}
}

func TestIDistancePrunesOnClusteredData(t *testing.T) {
	// Well-separated clusters: most queries stay inside one partition band
	// and scan a small fraction of the points.
	rng := rand.New(rand.NewSource(2))
	n := 5000
	data := linalg.NewDense(n, 6)
	for i := 0; i < n; i++ {
		c := i % 8
		for j := 0; j < 6; j++ {
			data.Set(i, j, float64(c*30)+rng.NormFloat64())
		}
	}
	id := BuildIDistance(data, 8, 3)
	var total Stats
	const queries = 20
	for q := 0; q < queries; q++ {
		query := data.Row(rng.Intn(n))
		_, st := id.KNN(query, 3)
		total.Add(st)
	}
	if frac := float64(total.PointsScanned) / float64(queries*n); frac > 0.25 {
		t.Fatalf("idistance scanned %.1f%% of points on clustered data", 100*frac)
	}
}

func TestIDistanceDuplicatePoints(t *testing.T) {
	data := linalg.NewDense(30, 2)
	for i := 0; i < 30; i++ {
		data.Set(i, 0, 1)
		data.Set(i, 1, 2)
	}
	id := BuildIDistance(data, 3, 4)
	got, _ := id.KNN([]float64{1, 2}, 5)
	if len(got) != 5 {
		t.Fatalf("results = %v", got)
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatalf("duplicate distance %v", nb.Dist)
		}
	}
}

// agreesWithLinearScan holds id.KNN to NewLinearScan's answer: the same
// distances rank by rank, each reported for a distinct row that really lies
// at that distance. (Which of several rows tied at the k-th distance is
// returned depends on the order they are offered, for every index.)
func agreesWithLinearScan(t *testing.T, id *IDistance, data *linalg.Dense, query []float64, k int) {
	t.Helper()
	got, _ := id.KNN(query, k)
	want, _ := NewLinearScan(data).KNN(query, k)
	if len(got) != len(want) {
		t.Fatalf("q=%v k=%d: %d results, want %d", query, k, len(got), len(want))
	}
	seen := make(map[int]bool)
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
			t.Fatalf("q=%v k=%d rank %d: %v, want %v", query, k, i, got[i], want[i])
		}
		if seen[got[i].Index] || got[i].Dist != linalg.Dist2(data.RawRow(got[i].Index), query) {
			t.Fatalf("q=%v k=%d rank %d: %v is a repeated row or not its true distance", query, k, i, got[i])
		}
		seen[got[i].Index] = true
	}
}

func TestIDistanceEquidistantRowsShareAKey(t *testing.T) {
	// One partition whose reference is the exact centroid (0,0): the four
	// unit points and the four at radius 2 are equidistant from it, so the
	// key array holds two runs of equal keys.
	data := linalg.FromRows([][]float64{
		{1, 0}, {0, 2}, {-1, 0}, {0, -2}, {0, 1}, {2, 0}, {0, -1}, {-2, 0},
	})
	id := BuildIDistance(data, 1, 1)
	dups := 0
	for i := 1; i < len(id.keys); i++ {
		if id.keys[i] < id.keys[i-1] {
			t.Fatalf("keys not ascending at %d: %v", i, id.keys)
		}
		if id.keys[i] == id.keys[i-1] {
			dups++
			if id.rows[i] < id.rows[i-1] {
				t.Fatalf("equal keys not in row order at %d: %v", i, id.rows)
			}
		}
	}
	if dups != 6 {
		t.Fatalf("expected two runs of four equal keys, got %d adjacent duplicates in %v", dups, id.keys)
	}
	for _, q := range [][]float64{{0, 0}, {1, 0.1}, {-3, 0}, {0.5, 0.5}} {
		for k := 1; k <= 8; k++ {
			agreesWithLinearScan(t, id, data, q, k)
		}
	}
}

func TestIDistanceScanBeyondPartitionBand(t *testing.T) {
	// Three well-separated clusters, row i in cluster i%3. A key range that
	// starts in the gap below a partition's band and ends in the gap above
	// it must yield exactly that partition's rows and nothing from its
	// neighbours.
	rng := rand.New(rand.NewSource(5))
	const n = 300
	data := linalg.NewDense(n, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			data.Set(i, j, float64(i%3*40)+rng.NormFloat64())
		}
	}
	id := BuildIDistance(data, 3, 7)
	for p := 0; p < id.Partitions(); p++ {
		base := float64(p) * id.stride
		var rows []int
		id.scan(base-0.5, base+id.maxRad[p]+0.5, func(row int) { rows = append(rows, row) })
		if len(rows) != n/3 {
			t.Fatalf("partition %d: scanned %d rows, want %d", p, len(rows), n/3)
		}
		for _, r := range rows {
			if r%3 != rows[0]%3 {
				t.Fatalf("partition %d: rows %d and %d come from different clusters", p, rows[0], r)
			}
		}
	}
	var none []int
	id.scan(id.maxRad[0]+0.25, id.stride-0.25, func(row int) { none = append(none, row) })
	if len(none) != 0 {
		t.Fatalf("scan of the gap between bands returned %v", none)
	}
	// Queries between clusters make KNN widen across several bands.
	for _, q := range [][]float64{{20, 20, 20}, {60, 60, 60}, {0, 40, 80}, {-5, -5, -5}} {
		for _, k := range []int{1, 7, n/3 + 1, n} {
			agreesWithLinearScan(t, id, data, q, k)
		}
	}
}
