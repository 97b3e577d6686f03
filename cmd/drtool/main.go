// Command drtool analyzes a labelled CSV data set with the coherence model,
// (optionally) writes a reduced representation, and (optionally) benchmarks
// a similarity index — exact or approximate — on the reduced data. With
// -bench it instead load-tests a serving engine.
//
// Usage:
//
//	drtool -in data.csv [-header] [-label N] [-scale] [-order eigenvalue|coherence]
//	       [-k N | -threshold F | -energy F | -floor F] [-out reduced.csv] [-report]
//	       [-index kdtree|vafile|rtree|idistance|lsh] [-neighbors K]
//	       [-queries N] [-tables L] [-probes T]
//	drtool -bench dense|store [-in data.csv] [-serve-mutate-ops N]
//	       [-serve-mutate-write F] [-serve-mutate-compact-at W]
//	       [-serve-concurrency C] [-serve-shards P] [-serve-workers W]
//	       [-serve-queue Q] [-serve-qps R] [-serve-deadline MS]
//	       [-serve-mode auto|exact|approx] [-neighbors K] [-serve-verify N]
//	       [-serve-seed S] [-serve-out report.json]
//	       [-store path.qvs] [-store-n N] [-store-d D] [-store-queries Q]
//	       [-store-rescore R] [-store-workers W] [-store-min-recall F]
//
// -bench is the one serving benchmark. It builds an engine — `dense`: the
// in-memory sharded engine over -in, or over a generated musk-like
// n=6598 d=166 set; `store`: the store-backed engine over a quantized
// vector store that is stream-built at -store-n × -store-d (or reused if
// the -store file exists) — verifies its exact path bit-identical to
// SearchSetBatch on -serve-verify queries, then drives it with
// -serve-mutate-ops closed-loop operations of which a fraction
// -serve-mutate-write are inserts and deletes (0 = a read-only run) while
// background compactions fold the accumulated deltas and tombstones into
// fresh snapshot generations. The run fails unless every op completes
// exactly once, every acknowledged insert is visible to later reads and no
// deleted ID is ever returned; a run with writes must also see a
// compaction install mid-run, and ends with the quiesced engine's exact
// results verified bit-identical to a from-scratch rebuild over the
// surviving rows. Store mode additionally measures recall@k of the
// budgeted approximate path against exact ground truth (failing below
// -store-min-recall), drops the full-precision region from the page cache
// before the load, and reports scan bandwidth and resident memory.
//
// The input's label column (default: last) is the semantic class used by the
// feature-stripped quality measurement; it is never part of the features.
// With -index, the chosen structure is built over both the full and the
// reduced representation and a query workload reports the scanned fraction;
// the approximate lsh index additionally reports recall@K against the exact
// neighbors, with -tables hash tables and -probes buckets probed per table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	repro "repro"
)

// options carries every flag of the CLI.
type options struct {
	in        string
	header    bool
	labelCol  int
	scale     bool
	order     string
	k         int
	threshold float64
	energy    float64
	floor     float64
	out       string
	report    bool

	index     string
	neighbors int
	queries   int
	tables    int
	probes    int

	bench            string
	serveConcurrency int
	serveShards      int
	serveWorkers     int
	serveQueue       int
	serveQPS         float64
	serveDeadlineMS  float64
	serveMode        string
	serveVerify      int
	serveSeed        int64
	serveOut         string

	serveMutateOps       int
	serveMutateWrite     float64
	serveMutateCompactAt int

	storePath      string
	storeN         int
	storeD         int
	storeQueries   int
	storeRescore   int
	storeWorkers   int
	storeMinRecall float64
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input CSV path (required, except with -bench)")
	flag.BoolVar(&o.header, "header", false, "input has a header row")
	flag.IntVar(&o.labelCol, "label", -1, "label column index (-1 = last)")
	flag.BoolVar(&o.scale, "scale", true, "studentize dimensions (correlation PCA)")
	flag.StringVar(&o.order, "order", "coherence", "component ordering: eigenvalue or coherence")
	flag.IntVar(&o.k, "k", 0, "retain exactly k components (0 = use -threshold/-energy/-floor)")
	flag.Float64Var(&o.threshold, "threshold", 0, "retain eigenvalues >= F * largest (0 = off)")
	flag.Float64Var(&o.energy, "energy", 0, "retain smallest prefix with >= F of variance (0 = off)")
	flag.Float64Var(&o.floor, "floor", 0, "retain components with coherence >= F (0 = off)")
	flag.StringVar(&o.out, "out", "", "write reduced CSV here")
	flag.BoolVar(&o.report, "report", true, "print the per-component analysis")
	flag.StringVar(&o.index, "index", "", "benchmark an index on the reduced data: kdtree, vafile, rtree, idistance or lsh")
	flag.IntVar(&o.neighbors, "neighbors", 10, "k-NN neighbor count for the index benchmark and -bench")
	flag.IntVar(&o.queries, "queries", 25, "query count for the index benchmark")
	flag.IntVar(&o.tables, "tables", 0, "lsh: hash tables (0 = default)")
	flag.IntVar(&o.probes, "probes", 16, "lsh: buckets probed per table")
	flag.StringVar(&o.bench, "bench", "", "benchmark a serving engine under load: dense (sharded in-memory engine over -in, or without -in the generated musk-like n=6598 d=166 workload) or store (store-backed engine over a quantized vector store)")
	flag.IntVar(&o.serveMutateOps, "serve-mutate-ops", 10000, "bench: total operations (reads + writes)")
	flag.Float64Var(&o.serveMutateWrite, "serve-mutate-write", 0.10, "bench: write fraction in [0,1] (split between inserts and deletes; 0 = read-only)")
	flag.IntVar(&o.serveMutateCompactAt, "serve-mutate-compact-at", 256, "bench: pending-mutation watermark that triggers background compaction")
	flag.IntVar(&o.serveConcurrency, "serve-concurrency", 32, "bench: closed-loop clients")
	flag.IntVar(&o.serveShards, "serve-shards", 0, "bench: engine shards (0 = GOMAXPROCS)")
	flag.IntVar(&o.serveWorkers, "serve-workers", 0, "bench: request workers (0 = 2*GOMAXPROCS)")
	flag.IntVar(&o.serveQueue, "serve-queue", 0, "bench: admission queue depth (0 = default)")
	flag.Float64Var(&o.serveQPS, "serve-qps", 0, "bench: aggregate operation rate (0 = unthrottled)")
	flag.Float64Var(&o.serveDeadlineMS, "serve-deadline", 0, "bench: per-operation deadline in ms (0 = none)")
	flag.StringVar(&o.serveMode, "serve-mode", "auto", "bench: search path of reads — auto, exact or approx")
	flag.IntVar(&o.serveVerify, "serve-verify", 64, "bench: queries checked bit-identical to SearchSetBatch (and, after a run with writes, to a rebuild over the survivors)")
	flag.Int64Var(&o.serveSeed, "serve-seed", 1, "bench: workload, op-mix and LSH seed")
	flag.StringVar(&o.serveOut, "serve-out", "", "bench: write a JSON report here (e.g. BENCH_serve.json)")
	flag.StringVar(&o.storePath, "store", "", "bench store: store file path (reused if it exists; empty = temp file)")
	flag.IntVar(&o.storeN, "store-n", 1_000_000, "bench store: data points")
	flag.IntVar(&o.storeD, "store-d", 166, "bench store: dimensions")
	flag.IntVar(&o.storeQueries, "store-queries", 32, "bench store: held-out query rows (recall probe set and request stream)")
	flag.IntVar(&o.storeRescore, "store-rescore", 2000, "bench store: per-shard exact-rescore budget of the approximate path")
	flag.IntVar(&o.storeWorkers, "store-workers", 0, "bench store: intra-query scan workers per shard (0 = 1)")
	flag.Float64Var(&o.storeMinRecall, "store-min-recall", 0, "bench store: fail unless recall@k reaches this (0 = report only)")
	flag.Parse()

	if o.bench != "" {
		if err := runBench(context.Background(), os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "drtool: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if o.in == "" {
		fmt.Fprintln(os.Stderr, "drtool: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "drtool: %v\n", err)
		os.Exit(1)
	}
}

// readInput loads the labelled CSV named by -in.
func readInput(o options) (*repro.Dataset, error) {
	f, err := os.Open(o.in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.ReadCSV(f, o.in, repro.CSVOptions{HasHeader: o.header, LabelColumn: o.labelCol})
}

func run(o options) error {
	ds, err := readInput(o)
	if err != nil {
		return err
	}
	ds, _ = ds.DropConstantColumns(1e-12)
	fmt.Printf("loaded %s\n", ds)

	opts := repro.Options{ComputeCoherence: true}
	if o.scale {
		opts.Scaling = repro.ScalingStudentize
	}
	p, err := repro.FitDataset(ds, opts)
	if err != nil {
		return err
	}

	ordering := repro.ByCoherence
	switch o.order {
	case "coherence":
	case "eigenvalue":
		ordering = repro.ByEigenvalue
	default:
		return fmt.Errorf("unknown -order %q", o.order)
	}

	var components []int
	switch {
	case o.k > 0:
		components = p.TopK(ordering, o.k)
	case o.threshold > 0:
		components = p.ThresholdEigenvalue(o.threshold)
	case o.energy > 0:
		components = p.EnergyTarget(o.energy)
	case o.floor > 0:
		components = p.CoherenceFloor(o.floor)
	default:
		// The paper's scatter-gap heuristic on the chosen ordering.
		vals := make([]float64, ds.Dims())
		for i, idx := range p.Order(ordering) {
			if ordering == repro.ByCoherence {
				vals[i] = p.Coherence[idx]
			} else {
				vals[i] = p.Eigenvalues[idx]
			}
		}
		cut := repro.GapCutoff(vals, 2, ds.Dims())
		components = p.Order(ordering)[:cut]
	}

	if o.report {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "component\teigenvalue\tcoherence\tselected")
		selected := map[int]bool{}
		for _, c := range components {
			selected[c] = true
		}
		for i := range p.Eigenvalues {
			mark := ""
			if selected[i] {
				mark = "*"
			}
			fmt.Fprintf(tw, "%d\t%.4g\t%.4f\t%s\n", i+1, p.Eigenvalues[i], p.Coherence[i], mark)
		}
		tw.Flush()
	}

	fullAcc := repro.DatasetAccuracy(ds)
	reduced := p.ReduceDataset(ds, components, ds.Name+" (reduced)")
	redAcc := repro.DatasetAccuracy(reduced)
	fmt.Printf("retained %d of %d components (%.1f%% of variance)\n",
		len(components), ds.Dims(), 100*p.EnergyFraction(components))
	fmt.Printf("feature-stripped 3-NN accuracy: full %.1f%% -> reduced %.1f%%\n", 100*fullAcc, 100*redAcc)

	if o.index != "" {
		if err := benchIndex(os.Stdout, o, ds, reduced); err != nil {
			return err
		}
	}

	if o.out != "" {
		of, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer of.Close()
		if err := repro.WriteCSV(of, reduced); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.out)
	}
	return nil
}

// benchIndex builds the chosen structure over the full and reduced feature
// matrices and reports per-query work (and recall, for the approximate
// index) on a workload of the first -queries points.
func benchIndex(w *os.File, o options, full, reduced *repro.Dataset) error {
	switch o.index {
	case "kdtree", "vafile", "rtree", "idistance", "lsh":
	default:
		return fmt.Errorf("unknown -index %q (kdtree, vafile, rtree, idistance or lsh)", o.index)
	}
	if o.neighbors < 1 {
		return fmt.Errorf("-neighbors %d must be positive", o.neighbors)
	}
	nq := o.queries
	if nq < 1 {
		return fmt.Errorf("-queries %d must be positive", nq)
	}
	if nq > full.N() {
		nq = full.N()
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "index benchmark: %s, %d-NN, %d queries\n", o.index, o.neighbors, nq)
	fmt.Fprintln(tw, "representation\tdims\tscanned\trecall\tbuckets/query")
	for _, rep := range []*repro.Dataset{full, reduced} {
		if err := benchOneRep(tw, o, rep, nq); err != nil {
			return err
		}
	}
	tw.Flush()
	return nil
}

func benchOneRep(tw *tabwriter.Writer, o options, ds *repro.Dataset, nq int) error {
	queryRows := make([]int, nq)
	for i := range queryRows {
		queryRows[i] = i
	}
	queries := ds.X.SliceRows(queryRows)

	var stats repro.IndexStats
	recall := 1.0
	switch o.index {
	case "lsh":
		ix := repro.BuildLSH(ds.X, repro.LSHConfig{Tables: o.tables, Seed: 1})
		approx, s := ix.KNNApproxSet(queries, o.neighbors, o.probes)
		stats = s
		exact := repro.SearchSetBatch(ds.X, queries, o.neighbors, repro.Euclidean{}, false)
		recall = repro.MeanRecall(approx, exact)
	case "kdtree", "vafile", "rtree", "idistance":
		var ix repro.Index
		switch o.index {
		case "kdtree":
			ix = repro.BuildKDTree(ds.X, 0)
		case "vafile":
			ix = repro.BuildVAFile(ds.X, 6)
		case "rtree":
			ix = repro.BuildRTree(ds.X, 0)
		case "idistance":
			ix = repro.BuildIDistance(ds.X, 16, 1)
		}
		for i := 0; i < nq; i++ {
			_, s := ix.KNN(queries.RawRow(i), o.neighbors)
			stats.Add(s)
		}
	}
	frac := repro.ScanFraction(stats, nq*ds.N())
	buckets := float64(stats.BucketsProbed) / float64(nq)
	fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%.3f\t%.0f\n", ds.Name, ds.Dims(), 100*frac, recall, buckets)
	return nil
}
