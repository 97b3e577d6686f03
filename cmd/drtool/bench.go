package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	repro "repro"
)

// benchWorkload is what a bench run serves and asks: the exact float64
// rows (the ground truth of every bit-identity check, and the base of the
// write mix), the held-out query rows, and — in store mode — the quantized
// store those rows live in.
type benchWorkload struct {
	rows    *repro.Matrix
	queries *repro.Matrix
	store   *repro.VectorStore // nil in dense mode
	close   func()             // releases the store mapping and any temp file; never nil
}

// denseWorkload builds the dense benchmark workload: either the feature
// matrix of -in (queries = a prefix reused as the request stream) or,
// without -in, the database-scale Musk analogue the recall experiments use
// (n = 6598 data rows at d = 166, plus held-out query rows), so the
// acceptance workload needs no external files.
func denseWorkload(o options, js *benchReport) (benchWorkload, error) {
	const nQueries = 128
	wl := benchWorkload{close: func() {}}
	if o.in != "" {
		ds, err := readInput(o)
		if err != nil {
			return wl, err
		}
		js.Dataset, wl.rows = ds.Name, ds.X
		wl.queries = ds.X.RowSlice(0, min(nQueries, ds.N()))
		return wl, nil
	}

	const nData = 6598
	gen := repro.MuskLikeConfig(o.serveSeed)
	gen.N = nData + nQueries
	all, err := repro.Generate(gen)
	if err != nil {
		return wl, err
	}
	js.Dataset = "musk-like"
	wl.rows = all.X.RowSlice(0, nData)
	wl.queries = all.X.RowSlice(nData, nData+nQueries)
	return wl, nil
}

// storeWorkload stream-builds a quantized store over the scaled musk-like
// distribution (unless the file already exists) and opens it. The workload
// streams n data rows plus the held-out query rows from one generator, so
// data and queries share a distribution and no float64 matrix of the data
// ever materializes: rows is the store's own mmap'd full-precision region.
func storeWorkload(w io.Writer, o options, js *benchReport) (benchWorkload, error) {
	var st *repro.VectorStore
	var tmpDir string
	path := o.storePath
	wl := benchWorkload{close: func() {
		if st != nil {
			st.Close()
		}
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
	}}
	if o.storeN < 2 || o.storeD < 1 || o.storeQueries < 1 {
		return wl, fmt.Errorf("-store-n %d / -store-d %d / -store-queries %d out of range", o.storeN, o.storeD, o.storeQueries)
	}

	if path == "" {
		var err error
		if tmpDir, err = os.MkdirTemp("", "drtool-store"); err != nil {
			return wl, err
		}
		path = filepath.Join(tmpDir, "store.qvs")
	}

	gen := repro.MuskLikeConfig(o.serveSeed)
	gen.Name = fmt.Sprintf("musk-like-%dx%d", o.storeN, o.storeD)
	gen.N = o.storeN + o.storeQueries
	gen.Dims = o.storeD
	if len(gen.ConceptStrengths) > o.storeD {
		gen.ConceptStrengths = gen.ConceptStrengths[:o.storeD]
	}
	js.Dataset = gen.Name
	rs, err := repro.NewRowStream(gen)
	if err != nil {
		return wl, err
	}

	_, statErr := os.Stat(path)
	build := statErr != nil

	// Pass 1: quantization scales (used only when building; accumulating
	// them costs little next to generating the rows) and the query rows.
	acc := repro.NewStoreScales(o.storeD)
	wl.queries = repro.NewMatrix(o.storeQueries, o.storeD)
	for i := 0; i < o.storeN; i++ {
		row, _ := rs.Next()
		acc.Add(row)
	}
	for i := 0; i < o.storeQueries; i++ {
		row, _ := rs.Next()
		copy(wl.queries.RawRow(i), row)
	}

	if build {
		start := time.Now()
		var cfg repro.StoreConfig
		cfg.Mins, cfg.Steps = acc.Scales(repro.StoreInt8)
		// Store dimensions in descending-variance order so the scan's
		// partial-distance prefix captures most of the distance mass and
		// its admissible lower bound rejects points early. Results are
		// unaffected — a permutation only reorders storage.
		cfg.Perm = acc.VarianceOrder()
		if err := rs.Reset(); err != nil {
			return wl, err
		}
		sw, err := repro.CreateStore(path, o.storeN, o.storeD, cfg)
		if err != nil {
			return wl, err
		}
		for i := 0; i < o.storeN; i++ {
			row, _ := rs.Next()
			if err := sw.Append(row); err != nil {
				sw.Close()
				return wl, err
			}
		}
		if err := sw.Close(); err != nil {
			return wl, err
		}
		js.BuildMS = float64(time.Since(start)) / float64(time.Millisecond)
		fmt.Fprintf(w, "built %s in %.0f ms\n", path, js.BuildMS)
	} else {
		fmt.Fprintf(w, "reusing %s\n", path)
	}

	if st, err = repro.OpenStore(path); err != nil {
		return wl, err
	}
	if st.Len() != o.storeN || st.Dims() != o.storeD {
		return wl, fmt.Errorf("store %s is %dx%d, flags say %dx%d (delete it or fix -store-n/-store-d)",
			path, st.Len(), st.Dims(), o.storeN, o.storeD)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return wl, err
	}
	js.Precision, js.PrefixDims = st.Precision().String(), st.PrefixDims()
	js.Rescore, js.ScanWorkers = o.storeRescore, o.storeWorkers
	js.FileBytes, js.BytesPerVectorScan, js.BytesPerVectorF64 = fi.Size(), st.BytesPerVectorScan(), 8*st.Dims()
	js.MemoryCut = float64(js.BytesPerVectorF64) / float64(js.BytesPerVectorScan)
	fmt.Fprintf(w, "store: %v, %d bytes (%d B/vector scan vs %d float64, %.1fx cut)\n",
		st.Precision(), js.FileBytes, js.BytesPerVectorScan, js.BytesPerVectorF64, js.MemoryCut)
	wl.store, wl.rows = st, st.ExactMatrix()
	return wl, nil
}

// benchReport is the JSON record `-serve-out` writes: the workload, the
// engine layout, the load generator's outcome accounting (repro.LoadReport,
// inline), the engine's latency percentiles, the bit-identity verdict and —
// in store mode — the store's shape, recall and memory table.
// scripts/bench.sh splices it into BENCH_serve.json (top level and
// "mutate") and BENCH_knn.json ("store").
type benchReport struct {
	Bench      string  `json:"bench"`
	Dataset    string  `json:"dataset"`
	N          int     `json:"n"`
	Dims       int     `json:"dims"`
	K          int     `json:"k"`
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	QueueCap   int     `json:"queue_cap"`
	CompactAt  int     `json:"compact_at"`
	QPS        float64 `json:"qps,omitempty"`
	DeadlineMS float64 `json:"deadline_ms,omitempty"`

	repro.LoadReport

	LatencyP50US float64 `json:"latency_p50_us"`
	LatencyP99US float64 `json:"latency_p99_us"`
	RSSServeMB   float64 `json:"rss_serve_mb,omitempty"`
	PeakRSSMB    float64 `json:"peak_rss_mb,omitempty"`

	VerifiedQueries int  `json:"verified_queries"`
	BitIdentical    bool `json:"bit_identical"`

	// Store mode only.
	Precision          string  `json:"precision,omitempty"`
	PrefixDims         int     `json:"prefix_dims,omitempty"`
	Rescore            int     `json:"rescore,omitempty"`
	ScanWorkers        int     `json:"scan_workers,omitempty"`
	FileBytes          int64   `json:"file_bytes,omitempty"`
	BytesPerVectorScan int     `json:"bytes_per_vector_scan,omitempty"`
	BytesPerVectorF64  int     `json:"bytes_per_vector_float64,omitempty"`
	MemoryCut          float64 `json:"memory_cut,omitempty"`
	BuildMS            float64 `json:"build_ms,omitempty"`
	GroundTruthMS      float64 `json:"ground_truth_ms,omitempty"`
	RecallQueries      int     `json:"recall_queries,omitempty"`
	Recall             float64 `json:"recall,omitempty"`
	ScanGBps           float64 `json:"scan_gbps,omitempty"`
}

// loadViolation reports a load run that broke a correctness invariant.
// Typed load shedding (overloaded, deadline) is load; every counter here
// is an engine bug.
func loadViolation(r repro.LoadReport) error {
	if r.Lost+r.Duplicated+r.DeletedIDHits+r.StaleAcks+r.UnknownID+r.OtherErrors == 0 {
		return nil
	}
	return fmt.Errorf("%d lost and %d duplicated operations, %d deleted-id hits, %d stale acks, %d unknown-id and %d untyped errors",
		r.Lost, r.Duplicated, r.DeletedIDHits, r.StaleAcks, r.UnknownID, r.OtherErrors)
}

// runBench is the `drtool -bench dense|store` entry point, the one
// pipeline of every serving benchmark (stages and failure gates: see the
// package comment). The context comes from main (or the test) and flows
// into every request.
func runBench(ctx context.Context, w io.Writer, o options) error {
	mode, ok := map[string]repro.ServeMode{"": repro.ModeAuto, "auto": repro.ModeAuto, "exact": repro.ModeExact, "approx": repro.ModeApprox}[o.serveMode]
	if !ok {
		return fmt.Errorf("unknown -serve-mode %q (auto, exact or approx)", o.serveMode)
	}
	k := o.neighbors
	if k < 1 {
		return fmt.Errorf("-neighbors %d must be positive", k)
	}
	if !(o.serveMutateWrite >= 0 && o.serveMutateWrite <= 1) {
		return fmt.Errorf("-serve-mutate-write %v must be in [0,1]", o.serveMutateWrite)
	}

	js := benchReport{
		Bench:      o.bench,
		K:          k,
		Workers:    o.serveWorkers,
		CompactAt:  o.serveMutateCompactAt,
		QPS:        o.serveQPS,
		DeadlineMS: o.serveDeadlineMS,
	}
	var wl benchWorkload
	var err error
	switch o.bench {
	case "dense":
		wl, err = denseWorkload(o, &js)
	case "store":
		wl, err = storeWorkload(w, o, &js)
	default:
		return fmt.Errorf("unknown -bench %q (dense or store)", o.bench)
	}
	defer wl.close()
	if err != nil {
		return err
	}
	st, queries := wl.store, wl.queries

	cfg := repro.ServeConfig{
		Shards:      o.serveShards,
		Workers:     o.serveWorkers,
		QueueDepth:  o.serveQueue,
		Probes:      o.probes,
		Rescore:     o.storeRescore,
		ScanWorkers: o.storeWorkers,
		CompactAt:   o.serveMutateCompactAt,
		LSH:         repro.LSHConfig{Tables: o.tables, Seed: o.serveSeed},
	}
	var e *repro.Engine
	if st != nil {
		e, err = repro.NewEngineFromStore(st, cfg)
	} else {
		e, err = repro.NewEngine(wl.rows, cfg)
	}
	if err != nil {
		return err
	}
	defer e.Close()
	js.N, js.Dims = wl.rows.Dims()
	js.Shards, js.QueueCap = e.Shards(), e.Stats().QueueCap
	fmt.Fprintf(w, "bench %s: %s n=%d d=%d, %d shards, queue %d, compact-at %d\n",
		o.bench, js.Dataset, js.N, js.Dims, js.Shards, js.QueueCap, js.CompactAt)

	// Bit-identity gate: the engine's exact path — sharded scan or
	// store-backed full rescore — must reproduce the single-threaded batch
	// engine answer for answer, bit for bit.
	js.VerifiedQueries = min(o.serveVerify, queries.Rows())
	if js.VerifiedQueries > 0 {
		if err := repro.VerifyMutated(ctx, e, repro.LiveSet{Rows: wl.rows}, queries, k, js.VerifiedQueries); err != nil {
			return fmt.Errorf("bench: exact path diverged from SearchSetBatch: %w", err)
		}
		fmt.Fprintf(w, "verified %d exact queries: bit-identical to SearchSetBatch\n", js.VerifiedQueries)
	}

	if st != nil {
		// Recall of the budgeted approximate path over every query, against
		// exact ground truth over the store's own full-precision region
		// (the mmap view — no second copy of the data).
		gtStart := time.Now()
		want := repro.SearchSetBatch(wl.rows, queries, k, repro.Euclidean{}, false)
		js.GroundTruthMS = float64(time.Since(gtStart)) / float64(time.Millisecond)
		got := make([][]repro.Neighbor, queries.Rows())
		for i := range got {
			res, err := e.SearchMode(ctx, queries.RawRow(i), k, repro.ModeApprox)
			if err != nil {
				return fmt.Errorf("approx query %d: %w", i, err)
			}
			got[i] = res.Neighbors
		}
		js.RecallQueries, js.Recall = len(got), repro.MeanRecall(got, want)
		fmt.Fprintf(w, "recall@%d = %.4f over %d queries (rescore budget %d per shard, ground truth in %.0f ms)\n",
			k, js.Recall, js.RecallQueries, o.storeRescore, js.GroundTruthMS)
		if js.Recall < o.storeMinRecall {
			return fmt.Errorf("bench: recall@%d %.4f below required %.4f", k, js.Recall, o.storeMinRecall)
		}

		// Drop the full-precision pages the ground-truth pass faulted in and
		// return freed heap to the OS, so the serving RSS below reflects the
		// quantized working set plus only what the load re-touches.
		st.DropExactPages()
		debug.FreeOSMemory()
		if kb, _ := readRSS(); kb > 0 {
			fmt.Fprintf(w, "rss: %.0f MB after dropping full-precision pages\n", float64(kb)/1024)
		}
	}

	var scannedBefore uint64
	if st != nil {
		scannedBefore = st.Stats().Scanned
	}
	load, live, err := repro.RunLoad(ctx, e, wl.rows, queries, repro.LoadConfig{
		Ops:           o.serveMutateOps,
		Concurrency:   o.serveConcurrency,
		WriteFraction: o.serveMutateWrite,
		QPS:           o.serveQPS,
		Deadline:      time.Duration(o.serveDeadlineMS * float64(time.Millisecond)),
		K:             k,
		Mode:          mode,
		Seed:          o.serveSeed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "load: %d ops, concurrency %d, write fraction %.2f, mode %s\n",
		load.Ops, load.Concurrency, load.WriteFraction, load.Mode)
	fmt.Fprintf(w, "  served: reads %d (exact %d, approx %d, degraded %d), inserts %d, deletes %d\n",
		load.Reads, load.Exact, load.Approx, load.Degraded, load.Inserts, load.Deletes)
	fmt.Fprintf(w, "  rejected: overloaded %d, deadline %d, unknown-id %d, other %d\n",
		load.Overloaded, load.DeadlineExceeded, load.UnknownID, load.OtherErrors)
	fmt.Fprintf(w, "  invariants: lost %d, duplicated %d, deleted-id hits %d, stale acks %d\n",
		load.Lost, load.Duplicated, load.DeletedIDHits, load.StaleAcks)
	fmt.Fprintf(w, "  elapsed %v, %.1f ops/s, mean wait %v\n", load.Elapsed.Round(time.Millisecond), load.Throughput, load.MeanWait)
	if st != nil {
		// The store's scan counter across the run converts into effective
		// phase-1 bandwidth — points scanned × scan bytes per vector over
		// wall time — the number the memory-bandwidth optimization is
		// accountable to.
		js.ScanGBps = float64(st.Stats().Scanned-scannedBefore) * float64(js.BytesPerVectorScan) / load.Elapsed.Seconds() / 1e9
		fmt.Fprintf(w, "  scanned %.2f GB/s\n", js.ScanGBps)
	}
	if err := loadViolation(load); err != nil {
		return fmt.Errorf("bench: %w", err)
	}

	if load.WriteFraction > 0 {
		stats := e.Stats()
		if o.serveMutateCompactAt >= 0 {
			// The watermark trigger is asynchronous: on a short run the load
			// can finish while the triggered background compactor is still
			// building. Its install is part of the run's work, so join it
			// (bounded) before judging whether the mid-run compaction
			// requirement held.
			deadline := time.Now().Add(10 * time.Second)
			for stats.Compactions == 0 && stats.DeltaRows+stats.Tombstones >= o.serveMutateCompactAt && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
				stats = e.Stats()
			}
		}
		load.Compactions, load.Epoch = stats.Compactions, stats.Epoch
		fmt.Fprintf(w, "  compactions %d (epoch %d), %d rows surviving\n", load.Compactions, load.Epoch, load.FinalRows)
		if load.Compactions == 0 {
			return fmt.Errorf("bench: no compaction ran mid-load (lower -serve-mutate-compact-at or raise the write fraction)")
		}

		// Quiesce: fold every pending mutation, then hold the engine to
		// bit-identity against a from-scratch rebuild over the survivors.
		if _, err := e.Compact(ctx); err != nil {
			return fmt.Errorf("bench: final compaction: %w", err)
		}
		if js.VerifiedQueries > 0 {
			if err := repro.VerifyMutated(ctx, e, live, queries, k, js.VerifiedQueries); err != nil {
				return fmt.Errorf("bench: engine diverged from the from-scratch rebuild: %w", err)
			}
			fmt.Fprintf(w, "verified %d queries bit-identical to a rebuild over %d survivors\n",
				js.VerifiedQueries, load.FinalRows)
		}
	}

	stats := e.Stats()
	rssKB, hwmKB := readRSS()
	fmt.Fprintf(w, "  latency p50 %v, p99 %v", stats.LatencyP50, stats.LatencyP99)
	if rssKB > 0 {
		fmt.Fprintf(w, "; rss %.0f MB serving (peak %.0f MB)", float64(rssKB)/1024, float64(hwmKB)/1024)
	}
	fmt.Fprintln(w)

	if o.serveOut == "" {
		return nil
	}
	js.LoadReport = load
	js.LatencyP50US = float64(stats.LatencyP50) / float64(time.Microsecond)
	js.LatencyP99US = float64(stats.LatencyP99) / float64(time.Microsecond)
	js.RSSServeMB, js.PeakRSSMB = float64(rssKB)/1024, float64(hwmKB)/1024
	js.BitIdentical = true // both verification gates above return on any divergence
	raw, err := json.MarshalIndent(js, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.serveOut, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", o.serveOut)
	return nil
}

// readRSS returns the process's current and peak resident set in kB from
// /proc/self/status, or zeros where that interface does not exist.
func readRSS() (rssKB, hwmKB int64) {
	b, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(b), "\n") {
		// A line that is not the named field scans nothing and leaves the
		// value alone.
		fmt.Sscanf(line, "VmRSS:%d", &rssKB)
		fmt.Sscanf(line, "VmHWM:%d", &hwmKB)
	}
	return rssKB, hwmKB
}
