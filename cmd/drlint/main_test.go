package main

import (
	"flag"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestModuleRootFindsGoMod(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root == "" {
		t.Fatal("empty module root")
	}
}

// TestFixtureViolationsAreReported points the CLI machinery at a directory
// full of known violations (the analyzers' own fixtures, which the normal
// walk skips as testdata) and checks findings come back positioned.
func TestFixtureViolationsAreReported(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := runPattern(root, "internal/analysis/testdata/src/globalrand", analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("expected findings from the globalrand fixture, got none")
	}
	for _, d := range diags {
		if d.Pos.Line <= 0 || !strings.Contains(d.Pos.Filename, "globalrand") {
			t.Errorf("diagnostic lacks a usable position: %s", d)
		}
	}
}

func TestRunPatternSubtree(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := runPattern(root, "internal/knn/...", analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("internal/knn should lint clean, got %v", diags)
	}
}

// TestRunPatternAppliesDirectives: the floatcmp fixture carries one
// //drlint:ignore directive, on the line above its violation; through the
// CLI machinery the other findings come back and the silenced line stays
// silent.
func TestRunPatternAppliesDirectives(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := runPattern(root, "internal/analysis/testdata/src/floatcmp", analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("expected floatcmp findings from the fixture, got none")
	}
	// One fixture file; its findings all point into it.
	src, err := os.ReadFile(diags[0].Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	const directive = "//drlint:ignore floatcmp"
	if !strings.Contains(string(src), directive) {
		t.Fatalf("the fixture no longer carries a %s directive", directive)
	}
	lines := strings.Split(string(src), "\n")
	for _, d := range diags {
		if strings.Contains(lines[d.Pos.Line-1], directive) ||
			d.Pos.Line >= 2 && strings.HasPrefix(strings.TrimSpace(lines[d.Pos.Line-2]), directive) {
			t.Errorf("finding on a line its directive should silence: %s", d)
		}
	}
}

func TestRulesFilter(t *testing.T) {
	if _, err := analysis.ByName([]string{"globalrand"}); err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.ByName([]string{"bogus"}); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

// TestDrlintFlagSet keeps the package doc's usage block and the registered
// flags the same set of names.
func TestDrlintFlagSet(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	flagName := regexp.MustCompile(`\s-([a-z]+)`)
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if !strings.HasPrefix(line, "\t") { // the usage block is the doc's only indented text
			continue
		}
		for _, m := range flagName.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}
	registered := map[string]bool{}
	fs := flag.NewFlagSet("drlint", flag.ContinueOnError)
	registerFlags(fs, new(options))
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	if !maps.Equal(documented, registered) {
		t.Fatalf("usage block documents %v\nflag set registers %v", documented, registered)
	}
	if len(registered) != 3 {
		t.Fatalf("%d flags registered, want 3", len(registered))
	}
}
