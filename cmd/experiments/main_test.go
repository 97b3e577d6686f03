package main

import (
	"bytes"
	"go/parser"
	"go/token"
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
