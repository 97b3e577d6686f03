package serve

import (
	"testing"

	"repro/internal/knn"
)

// TestDeltaScanAllocs pins the mutation read path's //drlint:hotpath
// contract at runtime: scanning a captured delta view against a warm
// collector allocates exactly once per call — the Results slice the caller
// keeps (result materialization, exempt under escapegate). The admission
// loop, tombstone cursor, and rescore pass are allocation-free.
func TestDeltaScanAllocs(t *testing.T) {
	const n, d, k = 64, 8, 4
	v := flatRows{
		rows:  make([]float64, n*d),
		ids:   make([]int, n),
		norms: make([]float64, n),
		d:     d,
	}
	for i := 0; i < n; i++ {
		v.ids[i] = i * 2
		var nrm float64
		for j := 0; j < d; j++ {
			x := float64((i*7919+j*31)%256) / 17
			v.rows[i*d+j] = x
			nrm += x * x
		}
		v.norms[i] = nrm
	}
	query := make([]float64, d)
	for j := range query {
		query[j] = float64(j) / 3
	}
	dead := []int{6, 20, 42}
	c := knn.NewCollector(k)

	avg := testing.AllocsPerRun(500, func() {
		_ = v.scan(query, k, dead, c)
	})
	if avg != 1 {
		t.Errorf("flatRows.scan does %.2f allocs/op, want exactly 1 (the results slice)", avg)
	}
}

// TestTombstoneReadAllocs pins the read path end to end, across the caller,
// Engine.handle and Engine.shardWorker (AllocsPerRun counts every
// goroutine): an exact read allocates five times — the request, its reply
// channel and the result slices — and one with 500 tombstones pending no
// more than one with none: nothing on the request path copies, sorts or
// grows with the dead lists.
func TestTombstoneReadAllocs(t *testing.T) {
	read := func(dead int) float64 {
		e, queries := tombstoneBenchEngine(t, dead)
		timeReads(t, e, queries, 8) // size the pooled collector first
		return testing.AllocsPerRun(100, func() { timeReads(t, e, queries, 1) })
	}
	clean, mutated := read(0), read(500)
	if clean > 5 {
		t.Errorf("exact read allocates %.1f times, want at most 5", clean)
	}
	if mutated > clean {
		t.Errorf("exact read allocates %.1f times with 500 tombstones, %.1f with none", mutated, clean)
	}
}
