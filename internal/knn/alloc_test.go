package knn

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestOfferZeroAllocs pins Collector.Offer's //drlint:hotpath contract at
// runtime: once the collector's heap is at capacity, admitting and
// rejecting candidates is allocation-free (the heap was pre-sized by
// NewCollector and sift operations swap in place).
func TestOfferZeroAllocs(t *testing.T) {
	c := NewCollector(16)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		c.Offer(i, float64(i%97))
		i++
	})
	if avg != 0 {
		t.Errorf("Offer does %.2f allocs/op, want 0", avg)
	}
}

// TestSortNeighborsZeroAllocs pins the slices.SortFunc + named-comparator
// form: sorting an existing neighbor list on the hot path must not box
// into sort.Interface or materialize a per-call closure.
func TestSortNeighborsZeroAllocs(t *testing.T) {
	ns := make([]Neighbor, 512)
	for i := range ns {
		ns[i] = Neighbor{Index: i, Dist: float64((i * 7919) % 1024)}
	}
	avg := testing.AllocsPerRun(200, func() {
		SortNeighbors(ns)
		// Restore disorder so each run sorts real work, not a sorted list.
		for i := range ns {
			ns[i].Dist = float64((i*7919 + i) % 1024)
		}
	})
	// The restore loop allocates nothing, so any nonzero count is the sort.
	if avg != 0 {
		t.Errorf("SortNeighbors does %.2f allocs/op, want 0", avg)
	}
}

// TestResetZeroAllocs pins the pooling hook: Reset to a capacity the heap
// already holds must reuse the backing array.
func TestResetZeroAllocs(t *testing.T) {
	c := NewCollector(64)
	for i := 0; i < 64; i++ {
		c.Offer(i, float64(i))
	}
	avg := testing.AllocsPerRun(500, func() {
		c.Reset(64)
		c.Offer(1, 1)
	})
	if avg != 0 {
		t.Errorf("Reset+Offer does %.2f allocs/op, want 0", avg)
	}
}

// TestScanTileZeroAllocs pins the tile scans' //drlint:hotpath contract:
// finding, clamping and offering a row's candidates — to one collector or,
// on a mirrored tile, to the row's and each column's — allocates nothing.
func TestScanTileZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	x := randMatrix(rng, 300, 8)
	norms := linalg.MulTRowNormsSq(x)
	g := linalg.MulT(x.RowSlice(0, 1), x).RawRow(0)
	collectors := make([]Collector, 300)
	bounds := make([]float64, 300)
	reset := func() {
		for i := range collectors {
			collectors[i].Reset(4)
			bounds[i] = collectors[i].Bound()
		}
	}
	reset() // the heaps exist from here on
	for name, call := range map[string]func(){
		"scanTile":         func() { scanTile(&collectors[0], g, norms, norms[0], 0, 0) },
		"scanTileMirrored": func() { scanTileMirrored(collectors, bounds, g[40:], norms, 0, 40) },
	} {
		if avg := testing.AllocsPerRun(100, func() { reset(); call() }); avg != 0 {
			t.Errorf("%s does %.2f allocs/op, want 0", name, avg)
		}
	}
}
