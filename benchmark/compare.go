package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparePair judges one end-to-end metric of one workload: b against a,
// under the bound and direction BENCHMARK.json fixes. worse is the share of
// a's value by which b is worse (negative when b is better). A pair whose
// change exceeds the bound is a regression, unless either run's own spread
// over its measured windows also exceeds the bound: then the run cannot
// resolve a change of that size and the pair is reported as unresolved,
// not as unchanged.
func comparePair(sm specMetric, a, b metric) (worse float64, verdict string) {
	if a.Value == 0 {
		return 0, verdictUnresolved
	}
	worse = (b.Value - a.Value) / a.Value
	if sm.Better == "higher" {
		worse = -worse
	}
	if worse <= sm.Bound {
		return worse, verdictOK
	}
	if spread(a) > sm.Bound || spread(b) > sm.Bound {
		return worse, verdictUnresolved
	}
	return worse, verdictRegression
}

// spread is a metric's range inside its run (see metric.Lo) as a share of its
// value.
func spread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Hi - m.Lo) / m.Value
}

func loadResult(path string) (result, error) {
	var r result
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("parsing %s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per (end-to-end metric, workload) pair of two
// result files and reports whether b is free of regressions against a: no
// pair beyond its bound, no workload with a higher failure ratio.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadResult(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadResult(bPath)
	if err != nil {
		return false, err
	}
	return compareResults(w, sp, a, b), nil
}

func compareResults(w io.Writer, sp spec, a, b result) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-10s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from b\n", wa.Name)
			ok = false
			continue
		}
		for _, sm := range sp.EndToEnd {
			ma, okA := find(wa.EndToEnd, sm.Name)
			mb, okB := find(wb.EndToEnd, sm.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-10s missing\n", wa.Name, sm.Name)
				ok = false
				continue
			}
			worse, verdict := comparePair(sm, ma, mb)
			if verdict == verdictRegression {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-10s %14.6g %14.6g %+8.2f%% %6.2f%%  %s\n",
				wa.Name, sm.Name, ma.Value, mb.Value, 100*worse, 100*sm.Bound, verdict)
		}
		verdict := verdictOK
		if wb.FailRatio > wa.FailRatio {
			verdict, ok = verdictRegression, false
		}
		fmt.Fprintf(w, "%-16s %-10s %14.6g %14.6g %9s %7s  %s\n", wa.Name, "fail_ratio", wa.FailRatio, wb.FailRatio, "", "any", verdict)
	}
	return ok
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
