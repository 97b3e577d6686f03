package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/linalg"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 200; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		q          float64
		want       int64
		wantBeyond int
	}{
		{0.50, 100, 100},
		{0.95, 190, 10},
		{0.99, 198, 2},
		{1.00, 200, 0},
		{0.00, 1, 199},
	} {
		got, beyond := percentile(s, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..200, %v) = %d with %d beyond, want %d with %d", c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %d, %d", v, beyond)
	}
	// 200 samples resolve p95 (10 beyond) but not p99; 199 resolve neither.
	if _, beyond := percentile(s, 0.95); beyond < minBeyond {
		t.Errorf("p95 of 200 samples has %d beyond, want at least %d", beyond, minBeyond)
	}
	if _, beyond := percentile(s[:199], 0.95); beyond >= minBeyond {
		t.Errorf("p95 of 199 samples has %d beyond, want fewer than %d", beyond, minBeyond)
	}
}

// TestResolvedPercentile: a percentile with fewer than minBeyond samples
// beyond it falls back to the highest one that has them, and never below the
// median.
func TestResolvedPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int64
	}{
		{200, 0.95, 190}, // resolved: 10 beyond
		{199, 0.95, 189}, // one short: the highest rank with 10 beyond
		{25, 0.95, 15},
		{25, 0.50, 13},
		{12, 0.95, 6}, // nothing above the median is resolved
		{12, 0.50, 6},
		{1, 0.95, 1},
	} {
		if got := resolved(seq(c.n), c.q); got != c.want {
			t.Errorf("resolved(1..%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	if got := resolved(nil, 0.95); got != 0 {
		t.Errorf("resolved of nothing = %d", got)
	}
}

// logClient is a client that only carries a log.
type logClient struct{ l *opLog }

func (c logClient) step(context.Context) {}
func (c logClient) log() *opLog          { return c.l }

// TestCalmPercentile: 40 inputs asked 25 times each, input k costing 100+k
// of the program's own time. A burst that triples a fifth of the run's ops
// moves the pooled percentiles but not the calm ones; slowing every op down
// moves both.
func TestCalmPercentile(t *testing.T) {
	const inputs, n = 40, 1000
	stats := func(lat func(i int) int64) (calm50, calm95, pooled95 float64) {
		l := newOpLog()
		for i := 0; i < n; i++ {
			l.done(sample{key: uint32(i % inputs), lat: lat(i)}, false)
		}
		l.done(sample{kind: opInsert, key: 7, lat: 1}, false) // not a primary op: ignored
		cs := []client{logClient{l}}
		ws := []window{{lo: []int{0}, hi: []int{n / 2}}, {lo: []int{n / 2}, hi: []int{n + 1}}}
		return calmPercentile(cs, ws, 0.50, 1).value, calmPercentile(cs, ws, 0.95, 1).value,
			windowPercentile(cs, ws, fieldLat, 0.95, 1, opPrimary).value
	}
	own := func(i int) int64 { return int64(100 + i%inputs) }
	burst := func(i int) int64 {
		if i >= 300 && i < 500 {
			return 3 * own(i)
		}
		return own(i)
	}
	// Over 40 inputs the median is the 20th cheapest, and p95 falls back to
	// the highest rank with 10 inputs beyond it: the 30th.
	if c50, c95, p95 := stats(own); c50 != 119 || c95 != 129 || p95 != 137 {
		t.Errorf("undisturbed: calm p50 %v, p95 %v, pooled p95 %v; want 119, 129, 137", c50, c95, p95)
	}
	if c50, c95, p95 := stats(burst); c50 != 119 || c95 != 129 || p95 < 300 {
		t.Errorf("with a burst: calm p50 %v, p95 %v, pooled p95 %v; want 119, 129 and at least 300", c50, c95, p95)
	}
	if c50, c95, _ := stats(func(i int) int64 { return 2 * burst(i) }); c50 != 238 || c95 != 258 {
		t.Errorf("every op twice as slow: calm p50 %v, p95 %v; want 238, 258", c50, c95)
	}
	st := calmPercentile(nil, nil, 0.5, 1)
	if st.value != 0 || st.samples != 0 {
		t.Errorf("calm percentile of nothing = %+v", st)
	}
}

// TestReadClientPasses: a read client asks every query once per pass, so after
// whole passes all queries have been asked equally often, and two passes do
// not share their order.
func TestReadClientPasses(t *testing.T) {
	const rows, passes = 64, 3
	c := &readClient{queries: linalg.NewDense(rows, 1), rng: rand.New(rand.NewSource(7))}
	asked := make([]int, rows)
	var first, second []int
	for i := 0; i < passes*rows; i++ {
		row := c.next()
		asked[row]++
		switch i / rows {
		case 0:
			first = append(first, row)
		case 1:
			second = append(second, row)
		}
	}
	for row, n := range asked {
		if n != passes {
			t.Errorf("query %d asked %d times in %d passes", row, n, passes)
		}
	}
	if fmt.Sprint(first) == fmt.Sprint(second) {
		t.Errorf("two passes in the same order: %v", first)
	}
}

func TestWindowMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func benchmarkSpec(t *testing.T) spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesHarness holds BENCHMARK.json and the harness's own lists to
// the same workloads, metric names, units and run length.
func TestSpecMatchesHarness(t *testing.T) {
	sp := benchmarkSpec(t)
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], harness %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
	if sp.RunSeconds != 15 {
		t.Errorf("run_seconds = %d, but -seconds defaults to 15", sp.RunSeconds)
	}
	if strings.Join(sp.Command, " ") != "go run ./benchmark" || len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", sp.Command, sp.Paths)
	}
}

// fixture is a result with one workload whose every end-to-end metric has the
// given value and a window spread of ±0.1 %.
func fixture(values map[string]float64) result {
	wr := workloadResult{Name: "dense_exact", Correct: true, Attempted: 1000}
	for _, d := range endToEnd {
		v := values[d.name]
		wr.EndToEnd = append(wr.EndToEnd, metric{Name: d.name, Unit: d.unit, Value: v, Samples: 4, Lo: 0.999 * v, Hi: 1.001 * v})
	}
	return result{Workloads: []workloadResult{wr}}
}

func TestCompare(t *testing.T) {
	sp := benchmarkSpec(t)
	base := map[string]float64{"ops_per_s": 2500, "op_p50_ms": 0.4, "op_p95_ms": 0.5, "quality": 1, "setup_s": 0.1, "rss_mb": 45}
	with := func(name string, v float64) map[string]float64 {
		m := make(map[string]float64, len(base))
		for k, x := range base {
			m[k] = x
		}
		m[name] = v
		return m
	}
	bound := func(name string) float64 {
		for _, m := range sp.EndToEnd {
			if m.Name == name {
				return m.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	var out bytes.Buffer
	a := fixture(base)

	if !compareResults(&out, sp, a, fixture(base)) || !compareResults(&out, sp, fixture(base), a) {
		t.Errorf("A/A comparison reports a regression:\n%s", out.String())
	}
	// A change inside the bound, in the worse direction, passes; just beyond
	// it fails; the same size in the better direction passes.
	drop := 1 - 1.2*bound("ops_per_s")
	if !compareResults(&out, sp, a, fixture(with("ops_per_s", 2500*(1-0.5*bound("ops_per_s"))))) {
		t.Errorf("half the bound counted as a regression")
	}
	out.Reset()
	if compareResults(&out, sp, a, fixture(with("ops_per_s", 2500*drop))) {
		t.Errorf("ops_per_s down %.0f %% passed:\n%s", 100*(1-drop), out.String())
	}
	if !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("no row marked %s:\n%s", verdictRegression, out.String())
	}
	if !compareResults(&out, sp, fixture(with("ops_per_s", 2500*drop)), a) {
		t.Errorf("an improvement counted as a regression")
	}
	if compareResults(&out, sp, a, fixture(with("op_p95_ms", 0.5*(1+1.2*bound("op_p95_ms"))))) {
		t.Errorf("a slower p95 beyond its bound passed")
	}
	if compareResults(&out, sp, a, fixture(with("quality", 1-0.01))) {
		t.Errorf("quality down 0.01 passed")
	}

	// The same drop is unresolved, not a regression, when the run's own
	// window spread is wider than the bound.
	noisy := fixture(with("ops_per_s", 2500*drop))
	for i := range noisy.Workloads[0].EndToEnd {
		m := &noisy.Workloads[0].EndToEnd[i]
		m.Lo, m.Hi = 0.5*m.Value, 1.5*m.Value
	}
	out.Reset()
	if !compareResults(&out, sp, a, noisy) || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("a drop inside the run's own spread was not reported as unresolved:\n%s", out.String())
	}

	worse := fixture(base)
	worse.Workloads[0].Failed, worse.Workloads[0].FailRatio = 1, 0.001
	if compareResults(&out, sp, a, worse) {
		t.Errorf("a higher fail ratio passed")
	}
}

var toySize = sizing{
	denseN: 512, denseQ: 32,
	storeN: 512, storeQ: 16,
	reduceN:     512,
	verifyDense: 16, verifyStore: 4, verifyMutate: 8,
}

// TestSmokeAllWorkloads runs every workload at toy scale, untraced and
// traced, through the same code a full run uses, and checks that the result
// is correct and that exactly the metrics BENCHMARK.json names come out,
// each with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	procsBefore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procsBefore)
	sp := benchmarkSpec(t)
	// All eight runs at once: their length is set by the clock, not by the
	// work, so overlapping them keeps the package's tests short.
	var wg sync.WaitGroup
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				smoke(t, sp, name, trace, t.TempDir())
			}()
		}
	}
	wg.Wait()
}

// smoke runs on its own goroutine, so it reports with Errorf only.
func smoke(t *testing.T, sp spec, name string, trace bool, dir string) {
	fail := func(format string, args ...any) {
		t.Errorf("%s trace=%t: %s", name, trace, fmt.Sprintf(format, args...))
	}
	out, err := runWorkload(context.Background(), runConfig{
		workload: name, seed: 7, measure: 800 * time.Millisecond, trace: trace, outDir: dir, size: toySize,
	})
	if err != nil {
		fail("%v", err)
		return
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		fail("correct=%t attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(resultLine(out)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		fail("result line does not parse: %v", err)
		return
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		fail("result line lacks a key: %s", resultLine(out))
	}
	if len(line.Metrics) != len(want) {
		fail("%d metrics emitted, BENCHMARK.json names %d", len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit {
			fail("metric %s [%s] missing or without its unit: %+v", m.Name, m.Unit, got)
			continue
		}
		if !trace && *got.Value <= 0 {
			fail("end-to-end metric %s = %v, want positive", m.Name, *got.Value)
		}
	}
}
