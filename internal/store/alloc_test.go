package store

import "testing"

// raceEnabled is set by race_test.go when the race detector is compiled in.
// sync.Pool drops a share of its items on purpose under the detector, so the
// pooled plan, scratch and collector reallocate and the allocation pins below
// cannot hold there.
var raceEnabled bool

// TestScanHotPathZeroAllocs pins the //drlint:hotpath contract at
// runtime: with the plan, scratch, and collector pools warm, one full
// phase-1 sweep — plan construction, quantization, the blocked ×8
// kernel scan with prefix early-abandon, and collector admission — does
// zero heap allocations. This is the exact code path escapegate verifies
// statically; the two must agree, and a regression in either flags the
// same commit.
func TestScanHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	data, queries := testData(t, 2000, 4, 64, 61)
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		q := queries.RawRow(0)
		for i := 0; i < 3; i++ {
			s.Search(q, 10, 100) // warm pools and page cache
		}
		avg := testing.AllocsPerRun(100, func() {
			p := s.getPlan(q)
			c := s.getCollector(100)
			s.scanSegment(p, 0, s.l.n, c)
			s.putCollector(c)
			s.putPlan(p)
		})
		if avg != 0 {
			t.Errorf("%s: warm phase-1 scan does %.1f allocs/op, want 0 (hot-path contract)", name, avg)
		}
	}
}
