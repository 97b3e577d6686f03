package store

import (
	"testing"

	"repro/internal/knn"
)

// The store benchmarks measure the phase-1 quantized scan against the
// float64 batch engine on the same data shape. CI's bench job holds
// StoreSearchInt8_6598x166 to at least twice ExactSearch6598x166's speed.

func benchStore(b *testing.B, n, d int, cfg BuildConfig, rescore int) {
	data, queries := testData(b, n, 16, d, 101)
	s := buildStore(b, data, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	qi := 0
	for i := 0; i < b.N; i++ {
		res := s.Search(queries.RawRow(qi), 10, rescore)
		if len(res) == 0 {
			b.Fatal("empty result")
		}
		qi = (qi + 1) % queries.Rows()
	}
}

// TestSearchSteadyStateAllocs pins the sync.Pool plumbing: once the
// plan, scratch, and collector pools are warm, a sequential Search must
// not allocate any per-query scan state anew. All that remains per call
// is materializing the sorted results copy the caller keeps — the scan
// itself is pinned at exactly zero by TestScanHotPathZeroAllocs. Before
// pooling, the plan alone added three slice allocations per call on this
// shape, and the collector plus sort.Slice bookkeeping four more. The
// two-segment fan-out of SearchRangeWorkers holds the same count: its
// collectors and join group are pooled and its goroutines come off the
// runtime's free list.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	data, queries := testData(t, 2000, 4, 64, 61)
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		q := queries.RawRow(0)
		// Warm the pools and the page cache.
		for i := 0; i < 3; i++ {
			s.Search(q, 10, 100)
		}
		avg := testing.AllocsPerRun(100, func() {
			s.Search(q, 10, 100)
		})
		if avg > 1 {
			t.Errorf("%s: steady-state Search does %.1f allocs/op, want <= 1 (pool plumbing or sort regressed?)", name, avg)
		}
		for i := 0; i < 3; i++ {
			s.SearchRangeWorkers(q, 0, s.Len(), 10, 100, 2)
		}
		avg = testing.AllocsPerRun(100, func() {
			s.SearchRangeWorkers(q, 0, s.Len(), 10, 100, 2)
		})
		if avg > 1 {
			t.Errorf("%s: steady-state two-worker SearchRangeWorkers does %.1f allocs/op, want <= 1", name, avg)
		}
		dead := []int{3, 1024, 1999}
		avg = testing.AllocsPerRun(100, func() {
			s.SearchLive(q, 0, s.Len(), 10, 100, 2, dead)
		})
		if avg > 1 {
			t.Errorf("%s: steady-state two-worker SearchLive with dead rows does %.1f allocs/op, want <= 1", name, avg)
		}
	}
}

func BenchmarkStoreSearchInt8_6598x166(b *testing.B) {
	benchStore(b, 6598, 166, BuildConfig{Precision: Int8}, 100)
}

// BenchmarkExactSearch6598x166 is the float64 comparison point: one query
// through the scalar norm-cache scan (knn.Search) on identical data.
func BenchmarkExactSearch6598x166(b *testing.B) {
	data, queries := testData(b, 6598, 16, 166, 101)
	b.ResetTimer()
	qi := 0
	for i := 0; i < b.N; i++ {
		res := knn.Search(data, queries.RawRow(qi), 10, knn.Euclidean{}, -1)
		if len(res) == 0 {
			b.Fatal("empty result")
		}
		qi = (qi + 1) % queries.Rows()
	}
}

func BenchmarkStoreBuild6598x166(b *testing.B) {
	data, _ := testData(b, 6598, 1, 166, 101)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(dir+"/bench.qvs", data, BuildConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
