package store

import (
	"testing"
	"time"

	"repro/internal/knn"
	"repro/internal/linalg"
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
		// The remaining branches of SearchLive: a range with every row dead
		// answers nothing, a worker count past what the range can split
		// into is clamped, and after a page drop the candidates' exact rows
		// are queued as read-ahead before the rescore.
		allDead := []int{10, 11, 12, 13}
		avg = testing.AllocsPerRun(100, func() {
			s.SearchLive(q, 10, 14, 10, 100, 2, allDead)
		})
		if avg != 0 {
			t.Errorf("%s: SearchLive over an all-dead range does %.1f allocs/op, want 0", name, avg)
		}
		avg = testing.AllocsPerRun(100, func() {
			s.SearchRangeWorkers(q, 0, 100, 10, 100, 8)
		})
		if avg > 1 {
			t.Errorf("%s: SearchRangeWorkers with more workers than segments does %.1f allocs/op, want <= 1", name, avg)
		}
		s.DropExactPages()
		s.Search(q, 10, 100)
		avg = testing.AllocsPerRun(100, func() {
			s.Search(q, 10, 100)
		})
		if avg > 1 {
			t.Errorf("%s: Search after DropExactPages does %.1f allocs/op, want <= 1", name, avg)
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

// BenchmarkScanBlockPrefix times the prefix pass alone: each iteration
// scans a variance-ordered 166-dim store as scanSegment does at one worker
// with a budget of 320 (32·k at k = 10) and no cut — full blocks until the
// collector is full, then prefix blocks over the 64-code plane to the end,
// each marked (scanBlockMark) one block before it is resolved
// (scanBlockResolve). Only the second half of the rows is on the clock:
// the marks of rows [n/2, n) and the resolves of as many rows one block
// behind. It reports ns per row and GB/s of the plane bytes a row carries
// (its 64 prefix codes, snormP, csumP and csumSuf). 32768 rows keep CI's
// one-pass smoke run short.
func BenchmarkScanBlockPrefix(b *testing.B) {
	const n, clocked, budget = 32768, 32768 / 2, 320
	const warm, from = (budget + scanBlockRows - 1) / scanBlockRows * scanBlockRows, n - clocked
	s, queries := varianceStore166(b, n)
	sc := s.getScratch(0)
	c := knn.NewCollector(budget)
	var prefix time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := s.getPlan(queries.RawRow(i % queries.Rows()))
		c.Reset(budget)
		for base := 0; base < warm; base += scanBlockRows {
			s.scanBlockFull(p, sc, base, base+scanBlockRows, c)
		}
		var t0 time.Time
		for base, m := warm, 0; base <= n; base, m = base+scanBlockRows, 1-m {
			if base == from {
				t0 = time.Now()
			}
			if base < n {
				s.scanBlockMark(p, &sc.marks[m], base, base+scanBlockRows, c.Bound())
			}
			if base > warm {
				s.scanBlockResolve(p, sc, &sc.marks[1-m], c)
			}
		}
		prefix += time.Since(t0)
		s.putPlan(p)
	}
	ns := float64(prefix.Nanoseconds()) / float64(b.N*clocked)
	b.ReportMetric(ns, "ns/row")
	b.ReportMetric(float64(s.prefDims+4+4+4)/ns, "GB/s")
}

// BenchmarkSearchCut times Search on a 32768-row variance-ordered 166-dim
// store at budget 320 (32·k at k = 10), once with the store's error radius
// and once reopened with the radius slot zeroed, as in a file written
// before the radius existed: there the refine step reads every candidate
// and the sweep runs without its cut. Besides ns/op (one query per op) it
// reports the candidates phase 1 keeps and the prefix survivors (rows the
// prefix bound passes on to a full estimate) per query, the two counts the
// cut moves; both are exact per query and taken before the clock starts.
func BenchmarkSearchCut(b *testing.B) {
	const n, k, budget = 32768, 10, 320
	with, queries := varianceStore166(b, n)
	for _, bc := range []struct {
		name string
		s    *Store
	}{{"radius", with}, {"no-radius", reopenWithoutRadius(b, with)}} {
		s := bc.s
		b.Run(bc.name, func(b *testing.B) {
			var cand, survivors int
			for qi := 0; qi < queries.Rows(); qi++ {
				q := queries.RawRow(qi)
				_, kept := s.SearchLive(q, 0, n, k, budget, 1, nil)
				p := s.getPlan(q)
				p.cutK = s.cutK(k, budget)
				c := s.getCollector(budget)
				cand += kept
				survivors += s.scanSegment(p, 0, n, c)
				s.putCollector(c)
				s.putPlan(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(s.Search(queries.RawRow(i%queries.Rows()), k, budget)) != k {
					b.Fatal("short result")
				}
			}
			b.ReportMetric(float64(cand)/float64(queries.Rows()), "cand/op")
			b.ReportMetric(float64(survivors)/float64(queries.Rows()), "survivors/op")
		})
	}
}

// varianceStore166 builds the benchmarks' n × 166 variance-ordered store
// and returns it with 16 held-out queries.
func varianceStore166(b *testing.B, n int) (*Store, *linalg.Dense) {
	data, queries := testData(b, n, 16, 166, 101)
	acc := NewScaleAccumulator(166)
	for i := 0; i < n; i++ {
		acc.Add(data.RawRow(i))
	}
	return buildStore(b, data, BuildConfig{Perm: acc.VarianceOrder()}), queries
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
