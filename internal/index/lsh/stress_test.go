package lsh

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// TestStressConcurrentEngines hammers every internally-parallel engine —
// knn.SearchSetBatch (GEMM path and scalar-metric worker split),
// linalg.MulTInto, linalg.AtA, and the LSH batch build/query — from many
// goroutines at once over shared read-only inputs. Its job is to give `go test -race` (the mode CI runs)
// real contention on the panel/worker code paths: nested parallelism,
// concurrent readers of the same backing arrays, and separately-owned
// output buffers. Any cross-goroutine write the engines accidentally share
// shows up as a race report here.
func TestStressConcurrentEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const (
		n       = 600
		nq      = 120
		d       = 24
		k       = 5
		rounds  = 4
		callers = 6
	)
	rng := rand.New(rand.NewSource(1234))
	data := linalg.NewDense(n, d)
	queries := linalg.NewDense(nq, d)
	for _, m := range []*linalg.Dense{data, queries} {
		rows, cols := m.Dims()
		for i := 0; i < rows; i++ {
			row := m.RawRow(i)
			for j := 0; j < cols; j++ {
				row[j] = rng.NormFloat64()
			}
		}
	}

	// Reference results computed single-threaded up front; every concurrent
	// caller must reproduce them exactly (the engines advertise determinism
	// for fixed inputs, not just absence of races).
	wantBatch := knn.SearchSetBatch(data, queries, k, knn.Euclidean{}, false)
	wantScalar := knn.SearchSet(data, queries, k, knn.Manhattan{}, false)
	wantMulT := linalg.MulT(queries, data)
	wantAtA := linalg.AtA(data)
	ix := Build(data, Config{Tables: 6, Hashes: 10, Seed: 99})
	wantLSH, _ := ix.KNNApproxSet(queries, k, 12)

	sameNeighbors := func(t *testing.T, got, want [][]knn.Neighbor, engine string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d result rows, want %d", engine, len(got), len(want))
			return
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Errorf("%s: query %d returned %d neighbors, want %d", engine, i, len(got[i]), len(want[i]))
				return
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Errorf("%s: query %d neighbor %d = %+v, want %+v", engine, i, j, got[i][j], want[i][j])
					return
				}
			}
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(5)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sameNeighbors(t, knn.SearchSetBatch(data, queries, k, knn.Euclidean{}, false), wantBatch, "SearchSetBatch")
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sameNeighbors(t, knn.SearchSetBatch(data, queries, k, knn.Manhattan{}, false), wantScalar, "SearchSetBatch(Manhattan)")
			}
		}()
		go func() {
			defer wg.Done()
			dst := linalg.NewDense(nq, n) // per-caller output buffer
			for r := 0; r < rounds; r++ {
				linalg.MulTInto(dst, queries, data)
				if !dst.Equal(wantMulT, 0) {
					t.Error("MulTInto: concurrent result diverged from reference")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := linalg.AtA(data); !got.Equal(wantAtA, 0) {
					t.Error("AtA: concurrent result diverged from reference")
					return
				}
			}
		}()
		go func(seed int64) {
			defer wg.Done()
			// Each caller builds its own index (exercising the parallel
			// build) and also queries the shared prebuilt one.
			own := Build(data, Config{Tables: 6, Hashes: 10, Seed: 99 + seed})
			for r := 0; r < rounds; r++ {
				got, _ := ix.KNNApproxSet(queries, k, 12)
				sameNeighbors(t, got, wantLSH, "lsh.KNNApproxSet")
				if _, stats := own.KNNApproxSet(queries, k, 12); stats.BucketsProbed == 0 {
					t.Error("lsh: own-index query probed no buckets")
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
}
