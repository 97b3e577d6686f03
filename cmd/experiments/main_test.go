package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// An -only value that names no section is an error listing the valid names,
// not a successful empty reproduction.
func TestRunRejectsUnknownSection(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, experiments.Config{Seed: 1, ThresholdFrac: 0.01}, "nosuch")
	if err == nil {
		t.Fatalf("unknown section accepted; printed %q", out.String())
	}
	if out.Len() != 0 {
		t.Errorf("unknown section still printed %q", out.String())
	}
	for _, s := range sections {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error %q does not name section %s", err, s.name)
		}
	}
}

// A -threshold outside [0,1] is an error before anything prints, not a panic
// inside the Table 1 selection rule.
func TestRunRejectsThresholdOutOfRange(t *testing.T) {
	for _, frac := range []float64{5, -1} {
		var out bytes.Buffer
		err := run(&out, experiments.Config{Seed: 1, ThresholdFrac: frac}, "table1")
		if err == nil || !strings.Contains(err.Error(), "-threshold") || out.Len() != 0 {
			t.Errorf("-threshold %v: error %v after printing %q, want an error naming the flag and no output", frac, err, out.String())
		}
	}
}

func TestRunOnlyPrintsOneSection(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, experiments.Config{Seed: 1, ThresholdFrac: 0.01}, "Figure2"); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.HasPrefix(got, "==== figure2 ====\n") || strings.Count(got, "==== ") != 1 {
		t.Fatalf("-only Figure2 printed:\n%s", got)
	}
}

// TestSectionTableMatchesDoc keeps the package doc's "Section names" list and
// the table that drives run the same names in the same order.
func TestSectionTableMatchesDoc(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(f.Doc.Text(), "Section names for -only:")
	if !ok {
		t.Fatal("package doc has no \"Section names for -only:\" list")
	}
	documented := strings.FieldsFunc(strings.TrimSuffix(strings.TrimSpace(list), "."), func(r rune) bool {
		return r == ',' || r == ' ' || r == '\n'
	})
	var table []string
	for _, s := range sections {
		table = append(table, s.name)
	}
	if !slices.Equal(documented, table) {
		t.Fatalf("package doc lists %v\nsection table has %v", documented, table)
	}
	if len(table) != 15 {
		t.Fatalf("%d sections, want 15", len(table))
	}
}

var update = flag.Bool("update", false, "re-record testdata/seed1.golden from the current tree")

// TestSeed1Golden holds the whole seed-1 reproduction — every table and
// figure of `experiments -seed 1` — to testdata/seed1.golden, byte for byte.
// A change that moves a number fails here, naming each section it moved and
// that section's first changed row. Re-record on purpose with
// `go test -run TestSeed1Golden ./cmd/experiments -update`.
func TestSeed1Golden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, experiments.Config{Seed: 1, ThresholdFrac: 0.01}, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "seed1.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n%s", path, strings.Join(goldenDiff(string(want), out.String()), "\n"))
	}
}

// block is one "==== name ====" section of run's output: the golden line
// number of its header and the rows under it.
type block struct {
	name string
	line int
	rows []string
}

// splitSections cuts run's output at its section headers. Rows before the
// first header, of which run prints none, land in a block named "".
func splitSections(s string) []block {
	bs := []block{{}}
	for i, row := range strings.Split(s, "\n") {
		if name, ok := strings.CutPrefix(row, "==== "); ok && strings.HasSuffix(name, " ====") {
			bs = append(bs, block{name: strings.TrimSuffix(name, " ===="), line: i + 1})
			continue
		}
		bs[len(bs)-1].rows = append(bs[len(bs)-1].rows, row)
	}
	return bs
}

// goldenDiff describes how got departs from want, one line per section that
// differs: its first differing row (with the golden's line number) and how
// many of its rows differ.
func goldenDiff(want, got string) []string {
	gotBlocks, wantBlocks := splitSections(got), splitSections(want)
	gotByName, wantNames := map[string][]string{}, map[string]bool{}
	for _, b := range gotBlocks {
		gotByName[b.name] = b.rows
	}
	var diffs []string
	for _, w := range wantBlocks {
		wantNames[w.name] = true
		g, ok := gotByName[w.name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("section %q (golden line %d) is missing", w.name, w.line))
			continue
		}
		first, n := -1, 0
		for j := 0; j < max(len(w.rows), len(g)); j++ {
			if j >= len(w.rows) || j >= len(g) || w.rows[j] != g[j] {
				if first < 0 {
					first = j
				}
				n++
			}
		}
		if first < 0 {
			continue
		}
		gotRow, wantRow := "(none)", "(none)"
		if first < len(g) {
			gotRow = g[first]
		}
		if first < len(w.rows) {
			wantRow = w.rows[first]
		}
		diffs = append(diffs, fmt.Sprintf("section %q, golden line %d (%d of %d rows differ):\n\tgot:  %s\n\twant: %s",
			w.name, w.line+first+1, n, len(w.rows), gotRow, wantRow))
	}
	for _, b := range gotBlocks {
		if !wantNames[b.name] {
			diffs = append(diffs, fmt.Sprintf("section %q is not in the golden", b.name))
		}
	}
	return diffs
}
