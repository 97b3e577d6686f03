// Command drtool analyzes a labelled CSV data set with the coherence model,
// (optionally) writes a reduced representation, and (optionally) benchmarks
// a similarity index — exact or approximate — on the reduced data.
//
// Usage:
//
//	drtool -in data.csv [-header] [-label N] [-scale] [-order eigenvalue|coherence]
//	       [-k N | -threshold F | -energy F | -floor F] [-out reduced.csv] [-report]
//	       [-index kdtree|vafile|rtree|idistance|lsh] [-neighbors K]
//	       [-queries N] [-tables L] [-probes T]
//
// The input's label column (default: last) is the semantic class used by the
// feature-stripped quality measurement; it is never part of the features.
// With -index, the chosen structure is built over both the full and the
// reduced representation and a query workload reports the scanned fraction;
// the approximate lsh index additionally reports recall@K against the exact
// neighbors, with -tables hash tables and -probes buckets probed per table.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/index/lsh"
	"repro/internal/knn"
	"repro/internal/reduction"
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
}

// registerFlags binds every option to its flag.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.in, "in", "", "input CSV path (required)")
	fs.BoolVar(&o.header, "header", false, "input has a header row")
	fs.IntVar(&o.labelCol, "label", -1, "label column index (-1 = last)")
	fs.BoolVar(&o.scale, "scale", true, "studentize dimensions (correlation PCA)")
	fs.StringVar(&o.order, "order", "coherence", "component ordering: eigenvalue or coherence")
	fs.IntVar(&o.k, "k", 0, "retain exactly k components (0 = use -threshold/-energy/-floor)")
	fs.Float64Var(&o.threshold, "threshold", 0, "retain eigenvalues >= F * largest, F in [0,1] (0 = off)")
	fs.Float64Var(&o.energy, "energy", 0, "retain smallest prefix with >= F of variance, F in [0,1] (0 = off)")
	fs.Float64Var(&o.floor, "floor", 0, "retain components with coherence >= F, F in [0,1] (0 = off)")
	fs.StringVar(&o.out, "out", "", "write reduced CSV here")
	fs.BoolVar(&o.report, "report", true, "print the per-component analysis")
	fs.StringVar(&o.index, "index", "", "benchmark an index on the reduced data: kdtree, vafile, rtree, idistance or lsh")
	fs.IntVar(&o.neighbors, "neighbors", 10, "k-NN neighbor count for the index benchmark")
	fs.IntVar(&o.queries, "queries", 25, "query count for the index benchmark")
	fs.IntVar(&o.tables, "tables", 0, "lsh: hash tables (0 = default)")
	fs.IntVar(&o.probes, "probes", 16, "lsh: buckets probed per table")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

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
func readInput(o options) (*dataset.Dataset, error) {
	f, err := os.Open(o.in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f, o.in, dataset.CSVOptions{HasHeader: o.header, LabelColumn: o.labelCol})
}

func run(o options) error {
	if o.labelCol < -1 {
		return fmt.Errorf("-label %d out of range (a column index, or -1 = last)", o.labelCol)
	}
	ds, err := readInput(o)
	if err != nil {
		return err
	}
	ds, _ = ds.DropConstantColumns(1e-12)
	fmt.Printf("loaded %s\n", ds)

	// Flag values are outside input: reject here what the selection rules
	// below would panic on. The negated form also rejects NaN.
	if o.k < 0 || o.k > ds.Dims() {
		return fmt.Errorf("-k %d out of range [0,%d] (the data's non-constant dimensions; 0 = off)", o.k, ds.Dims())
	}
	if !(o.threshold >= 0 && o.threshold <= 1) {
		return fmt.Errorf("-threshold %v out of range [0,1] (0 = off)", o.threshold)
	}
	if !(o.energy >= 0 && o.energy <= 1) {
		return fmt.Errorf("-energy %v out of range [0,1] (0 = off)", o.energy)
	}
	if !(o.floor >= 0 && o.floor <= 1) {
		return fmt.Errorf("-floor %v out of range [0,1] (0 = off)", o.floor)
	}

	opts := reduction.Options{ComputeCoherence: true}
	if o.scale {
		opts.Scaling = reduction.ScalingStudentize
	}
	p, err := reduction.FitDataset(ds, opts)
	if err != nil {
		return err
	}

	ordering := reduction.ByCoherence
	switch o.order {
	case "coherence":
	case "eigenvalue":
		ordering = reduction.ByEigenvalue
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
			if ordering == reduction.ByCoherence {
				vals[i] = p.Coherence[idx]
			} else {
				vals[i] = p.Eigenvalues[idx]
			}
		}
		cut := reduction.GapCutoff(vals, 2, ds.Dims())
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

	fullAcc := eval.DatasetAccuracy(ds)
	reduced := p.ReduceDataset(ds, components, ds.Name+" (reduced)")
	redAcc := eval.DatasetAccuracy(reduced)
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
		if err := dataset.WriteCSV(of, reduced); err != nil {
			of.Close()
			return err
		}
		// Close can be where a write-back failure (full disk, NFS) surfaces.
		if err := of.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.out)
	}
	return nil
}

// benchIndex builds the chosen structure over the full and reduced feature
// matrices and reports per-query work (and recall, for the approximate
// index) on a workload of the first -queries points.
func benchIndex(w *os.File, o options, full, reduced *dataset.Dataset) error {
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
	if o.tables < 0 {
		return fmt.Errorf("-tables %d must not be negative (0 = default)", o.tables)
	}
	if o.probes < 1 {
		return fmt.Errorf("-probes %d must be positive", o.probes)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "index benchmark: %s, %d-NN, %d queries\n", o.index, o.neighbors, nq)
	fmt.Fprintln(tw, "representation\tdims\tscanned\trecall\tbuckets/query")
	for _, rep := range []*dataset.Dataset{full, reduced} {
		if err := benchOneRep(tw, o, rep, nq); err != nil {
			return err
		}
	}
	tw.Flush()
	return nil
}

func benchOneRep(tw *tabwriter.Writer, o options, ds *dataset.Dataset, nq int) error {
	queryRows := make([]int, nq)
	for i := range queryRows {
		queryRows[i] = i
	}
	queries := ds.X.SliceRows(queryRows)

	var stats index.Stats
	recall := 1.0
	switch o.index {
	case "lsh":
		ix := lsh.Build(ds.X, lsh.Config{Tables: o.tables, Seed: 1})
		approx, s := ix.KNNApproxSet(queries, o.neighbors, o.probes)
		stats = s
		exact := knn.SearchSetBatch(ds.X, queries, o.neighbors, knn.Euclidean{}, false)
		recall = index.MeanRecall(approx, exact)
	case "kdtree", "vafile", "rtree", "idistance":
		var ix index.Index
		switch o.index {
		case "kdtree":
			ix = index.BuildKDTree(ds.X, 0)
		case "vafile":
			ix = index.BuildVAFile(ds.X, 6)
		case "rtree":
			ix = index.BuildRTree(ds.X, 0)
		case "idistance":
			ix = index.BuildIDistance(ds.X, 16, 1)
		}
		for i := 0; i < nq; i++ {
			_, s := ix.KNN(queries.RawRow(i), o.neighbors)
			stats.Add(s)
		}
	}
	frac := index.ScanFraction(stats, nq*ds.N())
	buckets := float64(stats.BucketsProbed) / float64(nq)
	fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%.3f\t%.0f\n", ds.Name, ds.Dims(), 100*frac, recall, buckets)
	return nil
}
