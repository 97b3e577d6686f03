package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary: a run emits exactly these names, in this order,
// and BENCHMARK.json lists the same names (spec_test.go holds them equal).
type metricDef struct{ name, unit string }

// Workload names, in the order a full run executes them.
var workloadNames = []string{"dense_exact", "store_approx", "mutate_mix", "reduce_pipeline"}

// endToEnd is what a caller of the system sees. Every one is measured with
// tracing off and applies to every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"quality", "ratio"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// perLayer is one layer's own time, work or counter, from the traced run.
// A layer that does nothing on a workload reports 0 there.
var perLayer = []metricDef{
	{"serve.wait_p50_us", "us"},
	{"serve.wait_p95_us", "us"},
	{"serve.total_p50_us", "us"},
	{"serve.handoff_p50_us", "us"},
	{"serve.overhead_p50_us", "us"},
	{"serve.op_p99_us", "us"},
	{"serve.shard_tasks_per_op", "count"},
	{"serve.rejected", "count"},
	{"serve.deadline", "count"},
	{"serve.degraded", "count"},
	{"serve.allocs_per_op", "count"},
	{"serve.gc_pause_ms", "ms"},
	{"serve.build_s", "s"},
	{"serve.write_p50_us", "us"},
	{"serve.write_p95_us", "us"},
	{"serve.insert_p50_us", "us"},
	{"serve.delete_p50_us", "us"},
	{"serve.compactions", "count"},
	{"serve.compact_explicit_ms", "ms"},
	{"serve.delta_rows_mean", "count"},
	{"serve.tombstones_mean", "count"},
	{"serve.epoch_swaps", "count"},
	{"store.bypass_p50_us", "us"},
	{"store.search_p50_us", "us"},
	{"store.search_workers_p50_us", "us"},
	{"store.exact_verify_ms", "ms"},
	{"store.rows_scanned_per_op", "count"},
	{"store.rescored_per_op", "count"},
	{"store.rescore_hit_ratio", "ratio"},
	{"store.scan_gbps", "GB/s"},
	{"store.bytes_per_vector_scan", "B"},
	{"store.space_ratio", "ratio"},
	{"store.scales_s", "s"},
	{"store.write_s", "s"},
	{"store.open_ms", "ms"},
	{"knn.bypass_p50_us", "us"},
	{"knn.batch_query_us", "us"},
	{"knn.single_query_us", "us"},
	{"linalg.dot166_ns", "ns"},
	{"linalg.mult_512x166_ms", "ms"},
	{"linalg.ata_ms", "ms"},
	{"linalg.eigsym_ms", "ms"},
	{"linalg.dotq15u8x8_ns_per_row", "ns"},
	{"stats.standardize_ms", "ms"},
	{"stats.covariance_ms", "ms"},
	{"core.analyze_basis_ms", "ms"},
	{"reduction.fit_ms", "ms"},
	{"reduction.reduce_ms", "ms"},
	{"reduction.fit_residual_ms", "ms"},
	{"reduction.accuracy", "ratio"},
	{"reduction.accuracy_eig", "ratio"},
	{"reduction.allocs_per_op", "count"},
	{"eval.accuracy_ms", "ms"},
	{"dataset.generate_s", "s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.groundtruth_s", "s"},
	{"bench.samples", "count"},
}

// metric is one reported value. Samples is how many timings, inputs or
// windows are behind it; Lo and Hi are its spread inside the run — the same
// statistic over the first and over the second half of the windows — and
// equal Value when it is measured once; Quantile is set on a percentile.
type metric struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Quantile float64 `json:"quantile,omitempty"`
}

// metricSet holds every metric of one list, in list order.
type metricSet struct{ list []metric }

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{list: make([]metric, len(defs))}
	for i, d := range defs {
		m.list[i] = metric{Name: d.name, Unit: d.unit}
	}
	return m
}

// set stores a value measured from n samples, with its spread. A name
// outside the list is a bug in the harness.
func (m *metricSet) set(name string, v float64, n int, lo, hi float64) *metric {
	for i := range m.list {
		if x := &m.list[i]; x.Name == name {
			x.Value, x.Samples, x.Lo, x.Hi = v, n, lo, hi
			return x
		}
	}
	panic("benchmark: metric " + name + " is not in the list")
}

// n stores a value that summarizes samples measurements and has no spread of
// its own; one stores a value measured once.
func (m *metricSet) n(name string, v float64, samples int) { m.set(name, v, samples, v, v) }
func (m *metricSet) one(name string, v float64)            { m.n(name, v, 1) }

// pct stores a percentile with its spread.
func (m *metricSet) pct(name string, st pctStat) {
	m.set(name, st.value, st.samples, st.lo, st.hi).Quantile = st.q
}

// specMetric and spec mirror BENCHMARK.json, which -compare reads for the
// bounds and directions.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}
