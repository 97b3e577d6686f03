package lsh

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/knn"
	"repro/internal/linalg"
)

// clusteredPoints draws n points from c Gaussian blobs in d dims — the
// friendly regime for LSH (neighbors share buckets far more often than
// non-neighbors).
func clusteredPoints(seed int64, n, d, c int) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	centers := linalg.NewDense(c, d)
	for i := 0; i < c; i++ {
		for j := 0; j < d; j++ {
			centers.Set(i, j, rng.NormFloat64()*8)
		}
	}
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		ctr := centers.RawRow(i % c)
		for j := 0; j < d; j++ {
			m.Set(i, j, ctr[j]+rng.NormFloat64())
		}
	}
	return m
}

func TestProbeSequenceOrderAndValidity(t *testing.T) {
	frac := []float64{0.1, 0.6, 0.45}
	seq := probeSequence(frac, 1000)
	if want := 3*3*3 - 1; len(seq) != want {
		t.Fatalf("m=3 generated %d perturbation sets, want %d", len(seq), want)
	}
	score := func(deltas []int8) float64 {
		s := 0.0
		for j, dv := range deltas {
			switch dv {
			case -1:
				s += frac[j] * frac[j]
			case +1:
				s += (1 - frac[j]) * (1 - frac[j])
			}
		}
		return s
	}
	seen := map[string]bool{}
	prev := -1.0
	for _, deltas := range seq {
		if len(deltas) != len(frac) {
			t.Fatalf("delta vector has %d entries", len(deltas))
		}
		allZero := true
		for _, dv := range deltas {
			if dv != 0 {
				allZero = false
			}
			if dv < -1 || dv > 1 {
				t.Fatalf("delta %d out of range", dv)
			}
		}
		if allZero {
			t.Fatal("probe sequence emitted the home bucket")
		}
		key := string(EncodeKey(widen(deltas)))
		if seen[key] {
			t.Fatalf("duplicate perturbation %v", deltas)
		}
		seen[key] = true
		if s := score(deltas); s < prev-1e-12 {
			t.Fatalf("scores not nondecreasing: %v after %v", s, prev)
		} else {
			prev = s
		}
	}
	// The cheapest perturbation moves the hash whose boundary is nearest:
	// hash 0 at frac 0.1 steps down.
	if want := []int8{-1, 0, 0}; !reflect.DeepEqual(seq[0], want) {
		t.Fatalf("first perturbation %v, want %v", seq[0], want)
	}
}

func widen(deltas []int8) []int32 {
	out := make([]int32, len(deltas))
	for i, d := range deltas {
		out[i] = int32(d)
	}
	return out
}

func TestProbeSequenceCount(t *testing.T) {
	frac := []float64{0.5, 0.25}
	if got := probeSequence(frac, 3); len(got) != 3 {
		t.Fatalf("count=3 returned %d sets", len(got))
	}
	if got := probeSequence(frac, 0); got != nil {
		t.Fatalf("count=0 returned %v", got)
	}
	if got := probeSequence(nil, 5); got != nil {
		t.Fatalf("m=0 returned %v", got)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cases := [][]int32{
		{},
		{0},
		{1, -1, 63, -64, 64, -65},
		{math.MaxInt32, math.MinInt32, 0, -1},
		{12345, -98765, 1 << 20},
	}
	for _, hs := range cases {
		key := EncodeKey(hs)
		back, err := DecodeKey(key)
		if err != nil {
			t.Fatalf("decode(%v): %v", hs, err)
		}
		if len(back) != len(hs) {
			t.Fatalf("round trip of %v changed length: %v", hs, back)
		}
		for i := range hs {
			if back[i] != hs[i] {
				t.Fatalf("round trip of %v gave %v", hs, back)
			}
		}
	}
}

func TestDecodeKeyRejectsMalformed(t *testing.T) {
	for _, key := range []string{"\x80", "\xff\xff\xff\xff\xff\x7f", "\x81\x00"} {
		if _, err := DecodeKey(key); err == nil {
			t.Fatalf("DecodeKey(%q) accepted malformed input", key)
		}
	}
}

func TestBuildDeterministicAcrossRuns(t *testing.T) {
	data := clusteredPoints(7, 500, 20, 5)
	cfg := Config{Tables: 6, Hashes: 8, Seed: 99}
	a := Build(data, cfg)
	b := Build(data, cfg)
	if a.width != b.width {
		t.Fatalf("widths differ: %v vs %v", a.width, b.width)
	}
	queries := clusteredPoints(8, 20, 20, 5)
	for i := 0; i < queries.Rows(); i++ {
		q := queries.RawRow(i)
		ra, sa := a.KNNApprox(q, 5, 4)
		rb, sb := b.KNNApprox(q, 5, 4)
		if !reflect.DeepEqual(ra, rb) || sa != sb {
			t.Fatalf("query %d differs across identical builds", i)
		}
	}
}

func TestKNNApproxSetMatchesSerial(t *testing.T) {
	data := clusteredPoints(11, 400, 12, 4)
	ix := Build(data, Config{Tables: 4, Hashes: 6, Seed: 3})
	queries := clusteredPoints(12, 37, 12, 4)
	got, gotStats := ix.KNNApproxSet(queries, 3, 5)
	var wantStats index.Stats
	for i := 0; i < queries.Rows(); i++ {
		want, s := ix.KNNApprox(queries.RawRow(i), 3, 5)
		wantStats.Add(s)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch result %d differs from serial", i)
		}
	}
	if gotStats != wantStats {
		t.Fatalf("batch stats %+v != serial %+v", gotStats, wantStats)
	}
}

func TestStatsAccounting(t *testing.T) {
	data := clusteredPoints(21, 300, 10, 3)
	ix := Build(data, Config{Tables: 5, Hashes: 4, Seed: 1})
	const probes = 7
	_, s := ix.KNNApprox(data.RawRow(0), 3, probes)
	if want := 5 * probes; s.BucketsProbed != want {
		t.Fatalf("BucketsProbed = %d, want %d", s.BucketsProbed, want)
	}
	if s.NodesVisited != s.BucketsProbed {
		t.Fatalf("NodesVisited = %d, BucketsProbed = %d", s.NodesVisited, s.BucketsProbed)
	}
	if s.CandidateSize != s.PointsScanned {
		t.Fatalf("CandidateSize = %d, PointsScanned = %d", s.CandidateSize, s.PointsScanned)
	}
	if s.CandidateSize == 0 {
		t.Fatal("query at an indexed point found no candidates")
	}
	if s.CandidateSize > 300 {
		t.Fatalf("CandidateSize %d exceeds point count", s.CandidateSize)
	}
}

// holdOut splits a point set into data and an in-distribution query set.
func holdOut(all *linalg.Dense, nq int) (data, queries *linalg.Dense) {
	n := all.Rows()
	dataIdx := make([]int, 0, n-nq)
	queryIdx := make([]int, 0, nq)
	for i := 0; i < n; i++ {
		if i < nq {
			queryIdx = append(queryIdx, i)
		} else {
			dataIdx = append(dataIdx, i)
		}
	}
	return all.SliceRows(dataIdx), all.SliceRows(queryIdx)
}

func TestRecallImprovesWithProbes(t *testing.T) {
	data, queries := holdOut(clusteredPoints(31, 1540, 24, 8), 40)
	ix := Build(data, Config{Tables: 6, Hashes: 6, Seed: 5})
	exact := knn.SearchSetBatch(data, queries, 10, knn.Euclidean{}, false)
	recallAt := func(probes int) float64 {
		approx, _ := ix.KNNApproxSet(queries, 10, probes)
		return index.MeanRecall(approx, exact)
	}
	r1, r32 := recallAt(1), recallAt(32)
	if r32 < r1 {
		t.Fatalf("recall fell with more probes: %v at 1, %v at 32", r1, r32)
	}
	if r32 < 0.6 {
		t.Fatalf("multi-probe recall %v too low on clustered data", r32)
	}
}

func TestMaxProbes(t *testing.T) {
	data := clusteredPoints(41, 50, 4, 2)
	if got := Build(data, Config{Tables: 2, Hashes: 2, Seed: 1}).MaxProbes(); got != 9 {
		t.Fatalf("MaxProbes(m=2) = %d, want 9", got)
	}
	if got := Build(data, Config{Tables: 2, Hashes: 40, Seed: 1}).MaxProbes(); got != 1<<30 {
		t.Fatalf("MaxProbes(m=40) = %d, want cap", got)
	}
}

func TestValidation(t *testing.T) {
	data := clusteredPoints(51, 30, 5, 2)
	ix := Build(data, Config{Seed: 1})
	for name, fn := range map[string]func(){
		"wrong dims":   func() { ix.KNNApprox([]float64{1}, 1, 1) },
		"k zero":       func() { ix.KNNApprox(make([]float64, 5), 0, 1) },
		"neg tables":   func() { Build(data, Config{Tables: -1}) },
		"neg width":    func() { Build(data, Config{Width: -2}) },
		"nan width":    func() { Build(data, Config{Width: math.NaN()}) },
		"empty matrix": func() { Build(linalg.NewDense(0, 0), Config{}) },
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
	// probes < 1 is clamped, not a panic.
	if res, _ := ix.KNNApprox(make([]float64, 5), 1, 0); res == nil {
		t.Fatal("probes=0 should still probe home buckets")
	}
}

func TestKMoreThanN(t *testing.T) {
	data := clusteredPoints(61, 8, 3, 1)
	ix := Build(data, Config{Tables: 3, Hashes: 2, Width: 1e6, Seed: 1})
	res, _ := ix.KNNApprox(data.RawRow(0), 50, 1)
	if len(res) != 8 {
		t.Fatalf("k>n with a covering width returned %d of 8 points", len(res))
	}
}

func TestRecallHelper(t *testing.T) {
	exact := []knn.Neighbor{{Index: 1}, {Index: 2}, {Index: 3}}
	if got := index.Recall([]knn.Neighbor{{Index: 2}, {Index: 9}}, exact); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Recall = %v", got)
	}
	if got := index.Recall(nil, nil); got != 1 {
		t.Fatalf("Recall of empty ground truth = %v", got)
	}
	if got := index.MeanRecall([][]knn.Neighbor{exact, nil}, [][]knn.Neighbor{exact, exact}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MeanRecall = %v", got)
	}
}
