package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	repro "repro"
)

// storeBenchReport is the JSON record `-store-out` writes; scripts/bench.sh
// splices it into BENCH_knn.json under the "store" key, so the recall/RSS/
// qps table travels with the kernel numbers.
type storeBenchReport struct {
	Dataset     string `json:"dataset"`
	N           int    `json:"n"`
	Dims        int    `json:"dims"`
	K           int    `json:"k"`
	Precision   string `json:"precision"`
	FullDims    int    `json:"full_dims"`
	PrefixDims  int    `json:"prefix_dims"`
	Shards      int    `json:"shards"`
	Rescore     int    `json:"rescore"`
	ScanWorkers int    `json:"scan_workers"`

	FileBytes          int64   `json:"file_bytes"`
	BytesPerVectorScan int     `json:"bytes_per_vector_scan"`
	BytesPerVectorF64  int     `json:"bytes_per_vector_float64"`
	MemoryCut          float64 `json:"memory_cut"`

	BuildMS       float64 `json:"build_ms,omitempty"`
	GroundTruthMS float64 `json:"ground_truth_ms"`

	Queries         int     `json:"queries"`
	Recall          float64 `json:"recall"`
	VerifiedQueries int     `json:"verified_queries"`
	BitIdentical    bool    `json:"bit_identical"`

	BenchRequests int     `json:"bench_requests"`
	QPS           float64 `json:"qps"`
	ScanGBps      float64 `json:"scan_gbps"`
	LatencyP50US  float64 `json:"latency_p50_us"`
	LatencyP99US  float64 `json:"latency_p99_us"`

	RSSServeMB float64 `json:"rss_serve_mb,omitempty"`
	PeakRSSMB  float64 `json:"peak_rss_mb,omitempty"`
}

// runStoreBench is the `drtool -store-bench` entry point: stream-build a
// quantized store over the scaled musk-like distribution (unless the file
// already exists), serve it through the store-backed engine, and measure
// recall@k against exact ground truth, throughput, and the resident set
// after the full-precision region is dropped from memory.
func runStoreBench(ctx context.Context, w io.Writer, o options) error {
	var prec repro.StorePrecision
	switch o.storePrec {
	case "", "int8":
		prec = repro.StoreInt8
	case "int16":
		prec = repro.StoreInt16
	default:
		return fmt.Errorf("unknown -store-prec %q (want int8 or int16)", o.storePrec)
	}
	if o.storeN < 2 || o.storeD < 1 {
		return fmt.Errorf("-store-n %d / -store-d %d out of range", o.storeN, o.storeD)
	}
	if o.storeQueries < 1 {
		return fmt.Errorf("-store-queries %d must be positive", o.storeQueries)
	}
	k := o.neighbors
	if k < 1 {
		return fmt.Errorf("-neighbors %d must be positive", k)
	}

	path := o.storePath
	if path == "" {
		dir, err := os.MkdirTemp("", "drtool-store")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "store.qvs")
	}

	// The workload streams n data rows plus the held-out query rows from one
	// musk-like generator, so data and queries share a distribution and no
	// float64 matrix of the data ever materializes.
	gen := repro.MuskLikeConfig(o.storeSeed)
	gen.Name = fmt.Sprintf("musk-like-%dx%d", o.storeN, o.storeD)
	gen.N = o.storeN + o.storeQueries
	gen.Dims = o.storeD
	if len(gen.ConceptStrengths) > o.storeD {
		gen.ConceptStrengths = gen.ConceptStrengths[:o.storeD]
	}
	rs, err := repro.NewRowStream(gen)
	if err != nil {
		return err
	}

	_, statErr := os.Stat(path)
	build := statErr != nil

	// Pass 1: quantization scales (only when building) and the query rows.
	var acc *repro.StoreScales
	if build {
		acc = repro.NewStoreScales(o.storeD)
	}
	queries := repro.NewMatrix(o.storeQueries, o.storeD)
	for i := 0; i < o.storeN; i++ {
		row, _ := rs.Next()
		if acc != nil {
			acc.Add(row)
		}
	}
	for i := 0; i < o.storeQueries; i++ {
		row, _ := rs.Next()
		copy(queries.RawRow(i), row)
	}

	var buildMS float64
	if build {
		start := time.Now()
		cfg := repro.StoreConfig{Precision: prec, FullDims: o.storeFull}
		cfg.Mins, cfg.Steps = acc.Scales(prec)
		// Store dimensions in descending-variance order so the scan's
		// partial-distance prefix captures most of the distance mass and
		// its admissible lower bound rejects points early. Results are
		// unaffected — a permutation only reorders storage.
		cfg.Perm = acc.VarianceOrder()
		if err := rs.Reset(); err != nil {
			return err
		}
		sw, err := repro.CreateStore(path, o.storeN, o.storeD, cfg)
		if err != nil {
			return err
		}
		for i := 0; i < o.storeN; i++ {
			row, _ := rs.Next()
			if err := sw.Append(row); err != nil {
				sw.Close()
				return err
			}
		}
		if err := sw.Close(); err != nil {
			return err
		}
		buildMS = float64(time.Since(start)) / float64(time.Millisecond)
		fmt.Fprintf(w, "built %s in %.0f ms\n", path, buildMS)
	} else {
		fmt.Fprintf(w, "reusing %s\n", path)
	}

	st, err := repro.OpenStore(path)
	if err != nil {
		return err
	}
	defer st.Close()
	if st.Len() != o.storeN || st.Dims() != o.storeD {
		return fmt.Errorf("store %s is %dx%d, flags say %dx%d (delete it or fix -store-n/-store-d)",
			path, st.Len(), st.Dims(), o.storeN, o.storeD)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	bytesScan := st.BytesPerVectorScan()
	bytesF64 := 8 * st.Dims()
	fmt.Fprintf(w, "store: %s n=%d d=%d %v full=%d, %d bytes (%d B/vector scan vs %d float64, %.1fx cut)\n",
		gen.Name, st.Len(), st.Dims(), st.Precision(), st.FullDims(),
		fi.Size(), bytesScan, bytesF64, float64(bytesF64)/float64(bytesScan))

	// Exact ground truth over the store's own full-precision region (the
	// mmap view — no second copy of the data).
	gtStart := time.Now()
	want := repro.SearchSetBatch(st.ExactMatrix(), queries, k, repro.Euclidean{}, false)
	gtMS := float64(time.Since(gtStart)) / float64(time.Millisecond)
	fmt.Fprintf(w, "ground truth: %d queries x k=%d in %.0f ms\n", o.storeQueries, k, gtMS)

	e, err := repro.NewEngineFromStore(st, repro.ServeConfig{
		Shards:      o.serveShards,
		Rescore:     o.storeRescore,
		ScanWorkers: o.storeWorkers,
	})
	if err != nil {
		return err
	}
	defer e.Close()

	// Bit-identity gate on a query sample: the store-backed exact path must
	// reproduce SearchSetBatch answer for answer.
	nVerify := o.storeVerify
	if nVerify > o.storeQueries {
		nVerify = o.storeQueries
	}
	identical := true
	for i := 0; i < nVerify && identical; i++ {
		res, err := e.SearchMode(ctx, queries.RawRow(i), k, repro.ModeExact)
		if err != nil {
			return fmt.Errorf("verify query %d: %w", i, err)
		}
		if len(res.Neighbors) != len(want[i]) {
			identical = false
			break
		}
		for j := range want[i] {
			if res.Neighbors[j] != want[i][j] {
				identical = false
			}
		}
	}
	if nVerify > 0 {
		status := "bit-identical to SearchSetBatch"
		if !identical {
			status = "MISMATCH against SearchSetBatch"
		}
		fmt.Fprintf(w, "verified %d exact queries: %s\n", nVerify, status)
	}

	// Recall of the budgeted approximate path over every query.
	got := make([][]repro.Neighbor, o.storeQueries)
	for i := range got {
		res, err := e.SearchMode(ctx, queries.RawRow(i), k, repro.ModeApprox)
		if err != nil {
			return fmt.Errorf("approx query %d: %w", i, err)
		}
		got[i] = res.Neighbors
	}
	recall := repro.MeanRecall(got, want)
	fmt.Fprintf(w, "recall@%d = %.4f (rescore budget %d per shard)\n", k, recall, o.storeRescore)
	if o.storeMinRecall > 0 && recall < o.storeMinRecall {
		return fmt.Errorf("store-bench: recall@%d %.4f below required %.4f", k, recall, o.storeMinRecall)
	}

	// Drop the full-precision pages the ground-truth pass faulted in and
	// return freed heap to the OS, so the serving RSS below reflects the
	// quantized working set plus only what phase 2 re-touches.
	st.DropExactPages()
	debug.FreeOSMemory()
	if kb, _ := readRSS(); kb > 0 {
		fmt.Fprintf(w, "rss: %.0f MB after dropping full-precision pages\n", float64(kb)/1024)
	}

	// Throughput: a closed-loop timed run on the approximate path. The
	// store's scan counter across the run converts into effective phase-1
	// bandwidth — points scanned × scan bytes per vector over wall time —
	// the number the memory-bandwidth optimization is accountable to.
	reqs := o.storeRequests
	if reqs < 1 {
		reqs = 100
	}
	scannedBefore := st.Stats().Scanned
	rep, err := repro.RunLoad(ctx, e, queries, repro.LoadConfig{
		Queries:     reqs,
		Concurrency: o.serveConcurrency,
		K:           k,
		Mode:        repro.ModeApprox,
	})
	if err != nil {
		return err
	}
	scanGBps := 0.0
	if sec := rep.Elapsed.Seconds(); sec > 0 {
		scannedRun := st.Stats().Scanned - scannedBefore
		scanGBps = float64(scannedRun) * float64(bytesScan) / sec / 1e9
	}
	est := e.Stats()
	rssKB, hwmKB := readRSS()
	fmt.Fprintf(w, "load: %d requests, %.1f qps, %.2f GB/s scanned, p50 %v, p99 %v\n",
		rep.Served, rep.Throughput, scanGBps, est.LatencyP50, est.LatencyP99)
	if rssKB > 0 {
		fmt.Fprintf(w, "rss: %.0f MB serving (peak %.0f MB)\n", float64(rssKB)/1024, float64(hwmKB)/1024)
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		return fmt.Errorf("store-bench: %d lost and %d duplicated responses", rep.Lost, rep.Duplicated)
	}
	if !identical {
		return fmt.Errorf("store-bench: store-backed exact results diverged from SearchSetBatch")
	}

	if o.storeOut != "" {
		js := storeBenchReport{
			Dataset:            gen.Name,
			N:                  st.Len(),
			Dims:               st.Dims(),
			K:                  k,
			Precision:          st.Precision().String(),
			FullDims:           st.FullDims(),
			PrefixDims:         st.PrefixDims(),
			Shards:             e.Shards(),
			Rescore:            o.storeRescore,
			ScanWorkers:        o.storeWorkers,
			FileBytes:          fi.Size(),
			BytesPerVectorScan: bytesScan,
			BytesPerVectorF64:  bytesF64,
			MemoryCut:          float64(bytesF64) / float64(bytesScan),
			BuildMS:            buildMS,
			GroundTruthMS:      gtMS,
			Queries:            o.storeQueries,
			Recall:             recall,
			VerifiedQueries:    nVerify,
			BitIdentical:       identical,
			BenchRequests:      rep.Served,
			QPS:                rep.Throughput,
			ScanGBps:           scanGBps,
			LatencyP50US:       float64(est.LatencyP50) / float64(time.Microsecond),
			LatencyP99US:       float64(est.LatencyP99) / float64(time.Microsecond),
			RSSServeMB:         float64(rssKB) / 1024,
			PeakRSSMB:          float64(hwmKB) / 1024,
		}
		f, err := os.Create(o.storeOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(js); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.storeOut)
	}
	return nil
}

// readRSS returns the process's current and peak resident set in kB from
// /proc/self/status, or zeros where that interface does not exist.
func readRSS() (rssKB, hwmKB int64) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		var dst *int64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rssKB
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &hwmKB
		default:
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				*dst = v
			}
		}
	}
	return rssKB, hwmKB
}
