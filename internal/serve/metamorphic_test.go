package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/knn"
	"repro/internal/linalg"
)

// The knn package checks the metamorphic relations of the scalar and batch
// paths; this file closes the loop for the serving layer: the sharded
// engine's exact path must satisfy the same relations — row permutation,
// dimension negation, and zero-dimension padding leave exact top-k results
// unchanged (ids after un-permutation, distances to 1e-12).

const metamorphicTol = 1e-12

func engineSearchSet(t *testing.T, data, queries *linalg.Dense, shards, k int) [][]knn.Neighbor {
	t.Helper()
	e := newTestEngine(t, data, shards)
	defer e.Close()
	return searchAll(t, e, queries, k, ModeExact)
}

func assertSameNeighbors(t *testing.T, label string, got, want [][]knn.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: query %d has %d neighbors, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].Index != want[i][j].Index {
				t.Fatalf("%s: query %d rank %d id %d, want %d", label, i, j, got[i][j].Index, want[i][j].Index)
			}
			if math.Abs(got[i][j].Dist-want[i][j].Dist) > metamorphicTol {
				t.Fatalf("%s: query %d rank %d dist %v, want %v", label, i, j, got[i][j].Dist, want[i][j].Dist)
			}
		}
	}
}

func TestEngineMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, d, nq, k, shards = 350, 17, 30, 8, 3
	data := randMatrix(rng, n, d)
	queries := randMatrix(rng, nq, d)
	base := engineSearchSet(t, data, queries, shards, k)

	t.Run("row permutation", func(t *testing.T) {
		perm := rng.Perm(n)
		got := engineSearchSet(t, data.SliceRows(perm), queries, shards, k)
		for i := range got {
			for j := range got[i] {
				got[i][j].Index = perm[got[i][j].Index]
			}
			knn.SortNeighbors(got[i])
		}
		assertSameNeighbors(t, "engine/permutation", got, base)
	})

	t.Run("dimension negation", func(t *testing.T) {
		col := 5
		negate := func(m *linalg.Dense) *linalg.Dense {
			out := m.Clone()
			for i := 0; i < out.Rows(); i++ {
				out.RawRow(i)[col] *= -1
			}
			return out
		}
		got := engineSearchSet(t, negate(data), negate(queries), shards, k)
		assertSameNeighbors(t, "engine/negation", got, base)
	})

	t.Run("zero-dimension padding", func(t *testing.T) {
		pad := func(m *linalg.Dense) *linalg.Dense {
			out := linalg.NewDense(m.Rows(), m.Cols()+1)
			for i := 0; i < m.Rows(); i++ {
				copy(out.RawRow(i), m.RawRow(i))
			}
			return out
		}
		got := engineSearchSet(t, pad(data), pad(queries), shards, k)
		assertSameNeighbors(t, "engine/zero-pad", got, base)
	})

	// The relations must also survive a snapshot replacement: a live engine
	// whose rows are replaced by their permutation through the one writer of
	// the snapshot pointer — insert the permuted rows, delete the originals,
	// compact — yields the same answers as an engine built on them from
	// scratch. Inserted row i is data row perm[i] and carries ID n+i.
	t.Run("swap to permuted data", func(t *testing.T) {
		perm := rng.Perm(n)
		e := newTestEngine(t, data, shards)
		defer e.Close()
		ctx := context.Background()
		for _, p := range perm {
			if _, err := e.Insert(ctx, data.RawRow(p)); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < n; id++ {
			if err := e.Delete(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		if epoch, err := e.Compact(ctx); err != nil || epoch != 2 {
			t.Fatalf("Compact = %d, %v, want epoch 2", epoch, err)
		}
		got := searchAll(t, e, queries, k, ModeExact)
		for i := range got {
			for j := range got[i] {
				got[i][j].Index = perm[got[i][j].Index-n]
			}
			knn.SortNeighbors(got[i])
		}
		assertSameNeighbors(t, "engine/swap-permutation", got, base)
	})
}
