package main

import (
	"flag"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dataset/synthetic"
)

// writeTestCSV generates a labelled data set and writes it to a temp file.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	ds := synthetic.IonosphereLike(1)
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

// baseOptions is the default CLI configuration the tests mutate.
func baseOptions(in string) options {
	return options{
		in: in, labelCol: -1, scale: true, order: "coherence",
		neighbors: 10, queries: 25, probes: 16,
	}
}

func TestRunEndToEnd(t *testing.T) {
	in := writeTestCSV(t)
	out := filepath.Join(t.TempDir(), "reduced.csv")
	o := baseOptions(in)
	o.k = 8
	o.out = out
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reduced, err := dataset.ReadCSV(f, "reduced", dataset.CSVOptions{LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if reduced.Dims() != 8 || reduced.N() != 351 {
		t.Fatalf("reduced shape %dx%d", reduced.N(), reduced.Dims())
	}
}

func TestRunSelectionModes(t *testing.T) {
	in := writeTestCSV(t)
	cases := []struct {
		name                     string
		k                        int
		threshold, energy, floor float64
	}{
		{"fixed k", 5, 0, 0, 0},
		{"threshold", 0, 0.10, 0, 0},
		{"energy", 0, 0, 0.90, 0},
		{"coherence floor", 0, 0, 0, 0.5},
		{"gap heuristic", 0, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := baseOptions(in)
			o.k, o.threshold, o.energy, o.floor = tc.k, tc.threshold, tc.energy, tc.floor
			if err := run(o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunEigenvalueOrderAndReport(t *testing.T) {
	in := writeTestCSV(t)
	o := baseOptions(in)
	o.scale = false
	o.order = "eigenvalue"
	o.k = 3
	o.report = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndexBenchmarks(t *testing.T) {
	in := writeTestCSV(t)
	for _, ix := range []string{"kdtree", "vafile", "rtree", "idistance", "lsh"} {
		t.Run(ix, func(t *testing.T) {
			o := baseOptions(in)
			o.k = 6
			o.index = ix
			o.queries = 10
			o.neighbors = 5
			if err := run(o); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Query count beyond n is clamped, not an error.
	o := baseOptions(in)
	o.k = 6
	o.index = "lsh"
	o.queries = 100000
	o.tables = 4
	o.probes = 4
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	o := baseOptions(filepath.Join(t.TempDir(), "missing.csv"))
	if err := run(o); err == nil {
		t.Fatalf("missing file accepted")
	}
	in := writeTestCSV(t)
	o = baseOptions(in)
	o.order = "bogus-order"
	if err := run(o); err == nil {
		t.Fatalf("bogus order accepted")
	}
	// Unwritable output path.
	o = baseOptions(in)
	o.k = 3
	o.out = filepath.Join(t.TempDir(), "no", "such", "dir.csv")
	if err := run(o); err == nil {
		t.Fatalf("unwritable output accepted")
	}
	// Flag values the selection rules or the index build would panic on, or
	// quietly replace.
	for _, bad := range []struct {
		flag string
		set  func(*options)
	}{
		{"-k", func(o *options) { o.k = 1000 }},
		{"-threshold", func(o *options) { o.threshold = 1.5 }},
		{"-energy", func(o *options) { o.energy = 2 }},
		{"-floor", func(o *options) { o.floor = -1 }},
		{"-floor", func(o *options) { o.floor = 2 }},
		{"-floor", func(o *options) { o.floor = math.NaN() }},
		{"-label", func(o *options) { o.labelCol = -5 }},
		{"-tables", func(o *options) { o.k, o.index, o.tables = 3, "lsh", -2 }},
		{"-probes", func(o *options) { o.k, o.index, o.probes = 3, "lsh", 0 }},
		{"-probes", func(o *options) { o.k, o.index, o.probes = 3, "lsh", -3 }},
	} {
		o = baseOptions(in)
		bad.set(&o)
		if err := run(o); err == nil || !strings.Contains(err.Error(), bad.flag+" ") {
			t.Fatalf("out-of-range %s: got error %v, want one naming the flag", bad.flag, err)
		}
	}
	// Bad index configurations.
	o = baseOptions(in)
	o.k = 3
	o.index = "btree"
	if err := run(o); err == nil {
		t.Fatalf("unknown index accepted")
	}
	o = baseOptions(in)
	o.k = 3
	o.index = "lsh"
	o.neighbors = 0
	if err := run(o); err == nil {
		t.Fatalf("zero neighbors accepted")
	}
	o = baseOptions(in)
	o.k = 3
	o.index = "kdtree"
	o.queries = 0
	if err := run(o); err == nil {
		t.Fatalf("zero queries accepted")
	}
}

// TestDrtoolFlagSet keeps the package doc's usage block and the registered
// flags the same set of names.
func TestDrtoolFlagSet(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	flagName := regexp.MustCompile(`(?:^|[\s\[|])-([a-z]+)`)
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if !strings.HasPrefix(line, "\t") { // the usage block is the doc's only indented text
			continue
		}
		for _, m := range flagName.FindAllStringSubmatch(line, -1) {
			documented = append(documented, m[1])
		}
	}
	var registered []string
	fs := flag.NewFlagSet("drtool", flag.ContinueOnError)
	registerFlags(fs, new(options))
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	slices.Sort(documented)
	slices.Sort(registered)
	if !slices.Equal(documented, registered) {
		t.Fatalf("usage block documents %v\nflag set registers %v", documented, registered)
	}
	if len(registered) != 16 {
		t.Fatalf("%d flags registered, want 16", len(registered))
	}
}
