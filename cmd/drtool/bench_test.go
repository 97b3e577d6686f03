package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	repro "repro"
)

// The three CI-sized flag sets the table's rows start from.

// denseReadOnly is the synthetic musk-like workload under a modest
// read-only load.
func denseReadOnly() options {
	return options{
		bench:            "dense",
		labelCol:         -1,
		neighbors:        5,
		probes:           16,
		serveMutateOps:   300,
		serveConcurrency: 8,
		serveVerify:      8,
		serveMode:        "auto",
		serveSeed:        1,
	}
}

// denseMixed adds enough writes over a low compaction watermark that
// several compactions install mid-run.
func denseMixed() options {
	o := denseReadOnly()
	o.serveMutateOps = 1200
	o.serveMutateWrite = 0.30
	o.serveMutateCompactAt = 64
	return o
}

// storeInt8 is a small int8 store served read-only on the approximate path.
func storeInt8() options {
	return options{
		bench:          "store",
		neighbors:      10,
		storeN:         4000,
		storeD:         48,
		storeQueries:   12,
		storeRescore:   400,
		serveVerify:    3,
		serveMutateOps: 30,
		serveMode:      "approx",
		serveSeed:      1,
	}
}

// benchCase is one row of the -bench table: a flag set and what the run
// must print, record or reject. A row with rerun set runs a second time
// against the same flags (and files) after rerun edits them.
type benchCase struct {
	test, sub string // top-level test the row is filed under, and its subtest name ("" = the test itself)
	base      func() options
	edit      func(t *testing.T, o *options)
	wantErr   string // substring of the expected error; "" = the run must succeed
	wantOut   string
	check     func(t *testing.T, o options, rep benchReport)

	rerun    func(o *options)
	rerunErr string
	rerunOut string
}

// withReport points -serve-out at a temp file so the row's check can read
// the JSON record back.
func withReport(t *testing.T, o *options) {
	o.serveOut = filepath.Join(t.TempDir(), "bench.json")
}

// partitions reports whether the outcome buckets account for every op.
func partitions(r benchReport) bool {
	return r.Reads+r.Inserts+r.Deletes+r.Overloaded+r.DeadlineExceeded+r.UnknownID+r.OtherErrors == r.Ops
}

var benchCases = []benchCase{
	// ---- dense, read-only ----
	{
		test: "TestServeBenchSynthetic", base: denseReadOnly, edit: withReport,
		wantOut: "bit-identical to SearchSetBatch",
		check: func(t *testing.T, o options, rep benchReport) {
			if rep.N != 6598 || rep.Dims != 166 {
				t.Errorf("workload %dx%d, want 6598x166", rep.N, rep.Dims)
			}
			if !rep.BitIdentical || rep.VerifiedQueries != 8 {
				t.Errorf("verification: identical=%v over %d queries", rep.BitIdentical, rep.VerifiedQueries)
			}
			if rep.Lost != 0 || rep.Duplicated != 0 {
				t.Errorf("%d lost, %d duplicated", rep.Lost, rep.Duplicated)
			}
			if !partitions(rep) || rep.Ops != o.serveMutateOps {
				t.Errorf("accounting hole: %+v", rep.LoadReport)
			}
			if rep.Inserts != 0 || rep.Deletes != 0 || rep.WriteFraction != 0 || rep.FinalRows != rep.N {
				t.Errorf("read-only run wrote: %+v", rep.LoadReport)
			}
		},
	},
	{
		test: "TestServeBenchCSVInput", base: denseReadOnly,
		edit: func(t *testing.T, o *options) {
			o.in = writeTestCSV(t)
			o.serveMutateOps, o.serveMode, o.serveVerify = 100, "exact", 4
		},
		wantOut: "served",
	},
	{
		test: "TestServeBenchModes", sub: "exact", base: denseReadOnly,
		edit: func(t *testing.T, o *options) {
			o.in = writeTestCSV(t)
			o.serveMutateOps, o.serveMode, o.serveVerify = 60, "exact", 2
		},
	},
	{
		test: "TestServeBenchModes", sub: "approx", base: denseReadOnly,
		edit: func(t *testing.T, o *options) {
			o.in = writeTestCSV(t)
			o.serveMutateOps, o.serveMode, o.serveVerify = 60, "approx", 2
		},
	},
	{
		test: "TestServeBenchErrors", sub: "bench selector", base: denseReadOnly,
		edit:    func(t *testing.T, o *options) { o.bench = "serve" },
		wantErr: "unknown -bench",
	},
	{
		test: "TestServeBenchErrors", sub: "mode", base: denseReadOnly,
		edit:    func(t *testing.T, o *options) { o.serveMode = "bogus" },
		wantErr: "unknown -serve-mode",
	},
	{
		test: "TestServeBenchErrors", sub: "neighbors", base: denseReadOnly,
		edit:    func(t *testing.T, o *options) { o.neighbors = 0 },
		wantErr: "-neighbors",
	},
	{
		test: "TestServeBenchErrors", sub: "missing input", base: denseReadOnly,
		edit:    func(t *testing.T, o *options) { o.in = filepath.Join(t.TempDir(), "missing.csv") },
		wantErr: "missing.csv",
	},
	{
		test: "TestServeBenchErrors", sub: "unwritable report", base: denseReadOnly,
		edit: func(t *testing.T, o *options) {
			o.serveOut = filepath.Join(t.TempDir(), "no", "such", "dir.json")
			o.serveMutateOps, o.serveVerify = 40, 1
		},
		wantErr: "dir.json",
	},

	// ---- dense, mixed read/write ----
	{
		test: "TestServeMutateSynthetic", base: denseMixed, edit: withReport,
		wantOut: "bit-identical to a rebuild",
		check: func(t *testing.T, o options, rep benchReport) {
			if rep.N != 6598 || rep.Dims != 166 {
				t.Errorf("workload %dx%d, want 6598x166", rep.N, rep.Dims)
			}
			if !rep.BitIdentical || rep.VerifiedQueries != 8 {
				t.Errorf("verification: identical=%v over %d queries", rep.BitIdentical, rep.VerifiedQueries)
			}
			if rep.Lost != 0 || rep.Duplicated != 0 || rep.DeletedIDHits != 0 || rep.StaleAcks != 0 {
				t.Errorf("invariant violations: lost=%d dup=%d hits=%d stale=%d",
					rep.Lost, rep.Duplicated, rep.DeletedIDHits, rep.StaleAcks)
			}
			if rep.Compactions == 0 {
				t.Error("no compaction recorded")
			}
			if rep.Inserts == 0 || rep.Deletes == 0 || rep.Reads == 0 {
				t.Errorf("degenerate mix: reads=%d inserts=%d deletes=%d", rep.Reads, rep.Inserts, rep.Deletes)
			}
			if !partitions(rep) || rep.Ops != o.serveMutateOps {
				t.Errorf("accounting hole: %+v", rep.LoadReport)
			}
		},
	},
	{
		test: "TestServeMutateCSVInput", base: denseMixed,
		edit: func(t *testing.T, o *options) {
			o.in = writeTestCSV(t)
			o.serveMutateOps, o.serveMutateCompactAt, o.serveMode, o.serveVerify = 400, 24, "exact", 4
		},
		wantOut: "compactions",
	},
	{
		test: "TestServeMutateErrors", sub: "mode", base: denseMixed,
		edit:    func(t *testing.T, o *options) { o.serveMode = "bogus" },
		wantErr: "unknown -serve-mode",
	},
	{
		test: "TestServeMutateErrors", sub: "neighbors", base: denseMixed,
		edit:    func(t *testing.T, o *options) { o.neighbors = 0 },
		wantErr: "-neighbors",
	},
	{
		test: "TestServeMutateErrors", sub: "write fraction", base: denseMixed,
		edit:    func(t *testing.T, o *options) { o.serveMutateWrite = 1.5 },
		wantErr: "-serve-mutate-write",
	},
	{
		// Auto-compaction disabled: the >=1 mid-run compaction gate must fail.
		test: "TestServeMutateErrors", sub: "no compaction", base: denseMixed,
		edit:    func(t *testing.T, o *options) { o.serveMutateCompactAt, o.serveMutateOps = -1, 200 },
		wantErr: "no compaction ran mid-load",
	},
	{
		test: "TestServeMutateErrors", sub: "unwritable report", base: denseMixed,
		edit: func(t *testing.T, o *options) {
			o.serveOut = filepath.Join(t.TempDir(), "no", "such", "dir.json")
			o.serveMutateOps, o.serveMutateCompactAt, o.serveVerify = 300, 16, 1
		},
		wantErr: "dir.json",
	},

	// ---- store-backed ----
	{
		test: "TestStoreBenchSynthetic", base: storeInt8,
		edit: func(t *testing.T, o *options) {
			withReport(t, o)
			o.storePath = filepath.Join(t.TempDir(), "bench.qvs")
		},
		wantOut: "bit-identical to SearchSetBatch",
		check: func(t *testing.T, o options, rep benchReport) {
			if rep.N != o.storeN || rep.Dims != o.storeD {
				t.Errorf("workload %dx%d, want %dx%d", rep.N, rep.Dims, o.storeN, o.storeD)
			}
			if !rep.BitIdentical || rep.VerifiedQueries != 3 {
				t.Errorf("verification: identical=%v over %d queries", rep.BitIdentical, rep.VerifiedQueries)
			}
			if rep.Recall < 0.99 || rep.RecallQueries != o.storeQueries {
				t.Errorf("recall %.4f over %d queries at rescore %d", rep.Recall, rep.RecallQueries, rep.Rescore)
			}
			if rep.MemoryCut < 3 {
				t.Errorf("memory cut %.2fx < 3x (scan %d B/vec vs %d float64)",
					rep.MemoryCut, rep.BytesPerVectorScan, rep.BytesPerVectorF64)
			}
			if rep.Reads != 30 || rep.Approx != 30 || rep.Throughput <= 0 || rep.ScanGBps <= 0 {
				t.Errorf("throughput run: %d reads (%d approx) at %.1f ops/s, %.2f GB/s",
					rep.Reads, rep.Approx, rep.Throughput, rep.ScanGBps)
			}
		},
		// A second run against the same path must reuse the file (no rebuild).
		rerun: func(o *options) {}, rerunOut: "reusing",
	},
	{
		// The write mix is a property of the load, not of the backend: a
		// store-backed engine takes it too (its compactions go dense).
		test: "TestStoreBenchMixed", base: storeInt8,
		edit: func(t *testing.T, o *options) {
			o.serveMutateOps, o.serveMutateWrite, o.serveMutateCompactAt, o.serveMode = 600, 0.3, 32, "auto"
		},
		wantOut: "bit-identical to a rebuild",
	},
	{
		test: "TestStoreBenchErrors", sub: "neighbors", base: storeInt8,
		edit:    func(t *testing.T, o *options) { o.neighbors = 0 },
		wantErr: "-neighbors",
	},
	{
		test: "TestStoreBenchErrors", sub: "n", base: storeInt8,
		edit:    func(t *testing.T, o *options) { o.storeN = 1 },
		wantErr: "-store-n",
	},
	{
		test: "TestStoreBenchErrors", sub: "recall floor", base: storeInt8,
		edit:    func(t *testing.T, o *options) { o.storeMinRecall = 1.01 },
		wantErr: "below required",
	},
	{
		// A store whose shape disagrees with the flags must be rejected, not
		// silently benchmarked against the wrong ground truth.
		test: "TestStoreBenchErrors", sub: "shape mismatch", base: storeInt8,
		edit:  func(t *testing.T, o *options) { o.storePath = filepath.Join(t.TempDir(), "shape.qvs") },
		rerun: func(o *options) { o.storeN += 100 }, rerunErr: "flags say",
	},
}

// expectRun runs the bench once and holds it to an error substring ("" =
// success) and an output substring.
func expectRun(t *testing.T, o options, wantErr, wantOut string) {
	t.Helper()
	var buf bytes.Buffer
	err := runBench(context.Background(), &buf, o)
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	case wantErr != "" && err == nil:
		t.Fatalf("run accepted, want an error mentioning %q", wantErr)
	case wantErr != "" && !strings.Contains(err.Error(), wantErr):
		t.Fatalf("error %q does not mention %q", err, wantErr)
	}
	if !strings.Contains(buf.String(), wantOut) {
		t.Fatalf("output does not mention %q:\n%s", wantOut, buf.String())
	}
}

func (c benchCase) run(t *testing.T) {
	o := c.base()
	if c.edit != nil {
		c.edit(t, &o)
	}
	expectRun(t, o, c.wantErr, c.wantOut)
	if c.check != nil {
		raw, err := os.ReadFile(o.serveOut)
		if err != nil {
			t.Fatal(err)
		}
		var rep benchReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		c.check(t, o, rep)
	}
	if c.rerun != nil {
		c.rerun(&o)
		expectRun(t, o, c.rerunErr, c.rerunOut)
	}
}

// runBenchRows runs the benchCases rows filed under the calling test.
func runBenchRows(t *testing.T) {
	n := 0
	for _, c := range benchCases {
		if c.test != t.Name() {
			continue
		}
		n++
		if c.sub == "" {
			c.run(t)
		} else {
			t.Run(c.sub, c.run)
		}
	}
	if n == 0 {
		t.Fatal("no benchCases rows are filed under this test")
	}
}

// The top-level names (TestStoreBenchMixed aside) are those of the tests
// the three pre-merge bench modes had, so the suite's test IDs stay stable;
// the assertions all live in benchCases.
func TestServeBenchSynthetic(t *testing.T)  { runBenchRows(t) }
func TestServeBenchCSVInput(t *testing.T)   { runBenchRows(t) }
func TestServeBenchModes(t *testing.T)      { runBenchRows(t) }
func TestServeBenchErrors(t *testing.T)     { runBenchRows(t) }
func TestServeMutateSynthetic(t *testing.T) { runBenchRows(t) }
func TestServeMutateCSVInput(t *testing.T)  { runBenchRows(t) }
func TestServeMutateErrors(t *testing.T)    { runBenchRows(t) }
func TestStoreBenchSynthetic(t *testing.T)  { runBenchRows(t) }
func TestStoreBenchMixed(t *testing.T)      { runBenchRows(t) }
func TestStoreBenchErrors(t *testing.T)     { runBenchRows(t) }

// TestLoadViolation covers the gate a correct engine never trips, so no
// flag set can reach it: each invariant counter alone must fail the run,
// while typed load shedding must not.
func TestLoadViolation(t *testing.T) {
	for _, c := range []struct {
		name string
		rep  repro.LoadReport
		want string // "" = no violation
	}{
		{"clean", repro.LoadReport{Ops: 10, Reads: 10}, ""},
		{"shed load", repro.LoadReport{Ops: 10, Reads: 4, Overloaded: 3, DeadlineExceeded: 3}, ""},
		{"lost", repro.LoadReport{Lost: 1}, "1 lost"},
		{"duplicated", repro.LoadReport{Duplicated: 2}, "2 duplicated"},
		{"deleted-id hit", repro.LoadReport{DeletedIDHits: 1}, "1 deleted-id hits"},
		{"stale ack", repro.LoadReport{StaleAcks: 1}, "1 stale acks"},
		{"unknown id", repro.LoadReport{UnknownID: 1}, "1 unknown-id"},
		{"untyped error", repro.LoadReport{OtherErrors: 1}, "1 untyped"},
	} {
		err := loadViolation(c.rep)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected violation %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want a violation mentioning %q", c.name, err, c.want)
		}
	}
}
