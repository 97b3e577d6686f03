package knn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// The self-join conformance suite: SearchSetBatch(x, x, …) walks the
// mirrored grid (searchSelfTiles) and must be indistinguishable from the
// two-matrix schedule on a copy of x and from the scalar SearchSet — not
// only in the returned lists but in every collector's heap, entry for entry,
// because the mirrored offers arrive in the order the two-matrix scan makes
// them.

// sameNeighborBits reports the first difference between two result sets,
// comparing distances by bit pattern (a NaN row's answers carry NaN).
func sameNeighborBits(got, want [][]Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d result lists, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("query %d: %d neighbors, want %d", i, len(got[i]), len(want[i]))
		}
		for r := range want[i] {
			g, w := got[i][r], want[i][r]
			if g.Index != w.Index || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
				return fmt.Errorf("query %d rank %d: got %v, want %v", i, r, g, w)
			}
		}
	}
	return nil
}

// collectHeaps runs one schedule's scan the way SearchSetBatch sets it up
// and returns every collector's heap as the scan left it.
func collectHeaps(x, queries *linalg.Dense, k int, selfExclude bool) [][]Neighbor {
	n := x.Rows()
	norms := linalg.MulTRowNormsSq(x)
	collectors := make([]Collector, n)
	for i := range collectors {
		collectors[i].Reset(min(k+1, n))
	}
	if x == queries {
		searchSelfTiles(x, norms, collectors, selfExclude)
	} else {
		searchTiles(x, queries, norms, linalg.MulTRowNormsSq(queries), collectors, selfExclude)
	}
	heaps := make([][]Neighbor, n)
	for i := range collectors {
		heaps[i] = collectors[i].heap
	}
	return heaps
}

func TestSearchSetBatchSelfJoinConformance(t *testing.T) {
	const B = batchSelfBlock
	rng := rand.New(rand.NewSource(109))
	type family struct {
		name string
		make func(n, d int) *linalg.Dense
	}
	random := func(n, d int) *linalg.Dense {
		if d == 1 {
			return latticeMatrix(rng, n, 1, 40, false) // integers: ties everywhere
		}
		return randMatrix(rng, n, d)
	}
	families := []family{
		{"plain", random},
		{"duplicates", func(n, d int) *linalg.Dense {
			x := random(n, d)
			for r := 0; r < n/5; r++ { // copies land in other blocks than their originals
				copy(x.RawRow(rng.Intn(n)), x.RawRow(rng.Intn(n)))
			}
			return x
		}},
		{"one NaN row", func(n, d int) *linalg.Dense {
			x := random(n, d)
			x.Set(n/2, 0, math.NaN())
			return x
		}},
	}
	for _, fam := range families {
		for _, n := range []int{1, 5, B - 1, B, B + 1, 3*B - 7, 2300} {
			if fam.name != "plain" && n != B+1 && n != 3*B-7 {
				continue // a NaN row sends every query to the scalar scan: three blocks of that
			}
			for _, d := range []int{1, 3, 16} {
				x := fam.make(n, d)
				twin := x.Clone()
				for _, k := range []int{1, 3, 10, n + 2} {
					if k > 10 && n > B+1 && (n > 3*B || d != 3 || fam.name != "plain") {
						continue // n-entry heaps on every query: one three-block case is enough
					}
					for _, selfExclude := range []bool{true, false} {
						label := fmt.Sprintf("%s n=%d d=%d k=%d selfExclude=%v", fam.name, n, d, k, selfExclude)
						want := SearchSetBatch(x, twin, k, Euclidean{}, selfExclude)
						// The O(n²·d) scalar oracle is consulted up to three blocks; at nine
						// the two-matrix schedule, held to it there and by the rest of the
						// package's tests, stands in.
						if n <= 3*B {
							if err := sameNeighborBits(want, SearchSet(x, x, k, Euclidean{}, selfExclude)); err != nil {
								t.Fatalf("%s: two-matrix schedule differs from SearchSet: %v", label, err)
							}
						}
						wantHeaps := collectHeaps(x, twin, k, selfExclude)
						for _, procs := range []int{1, 2, 4} {
							withProcs(procs, func() {
								if err := sameNeighborBits(SearchSetBatch(x, x, k, Euclidean{}, selfExclude), want); err != nil {
									t.Fatalf("%s GOMAXPROCS=%d: self-join differs from the two-matrix schedule: %v", label, procs, err)
								}
								if err := sameNeighborBits(collectHeaps(x, x, k, selfExclude), wantHeaps); err != nil {
									t.Fatalf("%s GOMAXPROCS=%d: a self-join collector's heap differs from the two-matrix schedule's: %v", label, procs, err)
								}
							})
						}
					}
				}
			}
		}
	}
}
