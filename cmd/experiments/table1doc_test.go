package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestTable1DocMatchesGolden holds the "Measured" column of EXPERIMENTS.md's
// Table 1 to testdata/seed1.golden: the numbers of each cell, in order, must
// be the ones the golden's table1 and quality sections give for it, or the
// stated derivation of those. A re-record that moves a cell fails here,
// naming the row, until the doc moves with it.
func TestTable1DocMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string][]string{}
	for _, b := range splitSections(string(golden)) {
		sections[b.name] = b.rows
	}
	// table1[set][column] and quality[set][dims] (the scaled column), as
	// printed, without the % sign.
	cols := []string{"full dims", "full acc", "opt acc", "opt dims", "thr acc", "thr dims", "var kept", "precision"}
	table1, quality := map[string]map[string]string{}, map[string]map[string]string{}
	for _, row := range sections["table1"] {
		if f := strings.Fields(strings.ReplaceAll(row, "%", "")); len(f) == 1+len(cols) && strings.HasSuffix(f[0], "-like") {
			table1[f[0]] = map[string]string{}
			for i, c := range cols {
				table1[f[0]][c] = f[1+i]
			}
		}
	}
	set := ""
	for _, row := range sections["quality"] {
		if name, ok := strings.CutPrefix(row, "Prediction accuracy vs dimensions retained: "); ok {
			set = name
			quality[set] = map[string]string{}
		} else if f := strings.Fields(strings.ReplaceAll(row, "%", "")); len(f) == 3 && set != "" {
			quality[set][f[0]] = f[2]
		}
	}
	g := func(set, col string) string {
		v, ok := table1[set+"-like"][col]
		if !ok {
			t.Fatalf("golden table1 has no %q for %s", col, set)
		}
		return v
	}
	q := func(set, dims string) string {
		v, ok := quality[set+"-like"][dims]
		if !ok {
			t.Fatalf("golden quality has no scaled accuracy at %s dims for %s", dims, set)
		}
		return v
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	pct := func(x float64) string { return strconv.FormatFloat(x, 'f', 1, 64) }

	// want maps "Data set | Quantity" to the Measured cell's numbers and how
	// each is derived from the golden.
	want := map[string]struct {
		nums []string
		how  string
	}{
		"Musk (166-d) | optimal dimensionality": {
			[]string{g("musk", "opt dims"), g("musk", "full dims"), "11", q("musk", "11"), pct(100 * num(q("musk", "11")) / num(g("musk", "opt acc")))},
			"table1 opt dims of full dims; quality's scaled accuracy at 11 dims; that as a percentage of table1 opt acc"},
		"Musk | optimal vs full accuracy": {
			[]string{g("musk", "opt acc"), g("musk", "full acc")}, "table1 opt acc vs full acc"},
		"Ionosphere (34-d) | optimal dimensionality": {
			[]string{g("ionosphere", "opt dims")}, "table1 opt dims"},
		"Ionosphere | optimal vs full accuracy": {
			[]string{g("ionosphere", "opt acc"), g("ionosphere", "full acc")}, "table1 opt acc vs full acc"},
		"Arrhythmia (279-d) | optimal dimensionality": {
			[]string{g("arrhythmia", "opt dims"), "10", q("arrhythmia", "10")}, "table1 opt dims; quality's scaled accuracy at 10 dims"},
		"Arrhythmia | variance discarded at optimum": {
			[]string{pct(100 - num(g("arrhythmia", "var kept")))}, "100 − table1 var kept @opt"},
		"all | threshold baseline": {
			[]string{g("musk", "thr acc"), g("musk", "thr dims"), g("musk", "full dims"),
				g("ionosphere", "thr acc"), g("ionosphere", "thr dims"), g("ionosphere", "full dims"),
				g("arrhythmia", "thr acc"), g("arrhythmia", "thr dims"), g("arrhythmia", "full dims")},
			"table1 thr acc @ thr dims / full dims, per set"},
		"musk, arrhythmia | precision of optimum vs original neighbors": {
			[]string{g("musk", "precision"), g("arrhythmia", "precision")}, "table1 precision @opt"},
	}

	_, table, ok := strings.Cut(string(doc), "## Table 1")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Table 1" section`)
	}
	number := regexp.MustCompile(`\d+(?:\.\d+)?`)
	seen := map[string]bool{}
	for _, row := range strings.Split(table, "\n")[1:] {
		if !strings.HasPrefix(row, "|") {
			if len(seen) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(row, "|"), "|")
		if len(cells) < 4 || strings.HasPrefix(cells[0], "---") || strings.TrimSpace(cells[0]) == "Data set" {
			continue
		}
		key := strings.TrimSpace(cells[0]) + " | " + strings.TrimSpace(cells[1])
		seen[key] = true
		w, ok := want[key]
		if !ok {
			t.Errorf("EXPERIMENTS.md Table 1 row %q: no derivation from the golden in this test", key)
			continue
		}
		if got := number.FindAllString(cells[3], -1); !slices.Equal(got, w.nums) {
			t.Errorf("EXPERIMENTS.md Table 1 row %q: Measured has %v, the golden gives %v (%s)", key, got, w.nums, w.how)
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("EXPERIMENTS.md Table 1 has no row %q", key)
		}
	}
}
