package main

import (
	"os"
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

// TestCleanTreeHasNoFindings is the CLI-level view of the self-enforcing
// lint: the committed tree must produce zero diagnostics.
func TestCleanTreeHasNoFindings(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := runPattern(root, "./...", analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
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

// TestRunPatternAppliesDirectives: the atomicmix fixture carries one
// //drlint:ignore directive among its violations; through the CLI machinery
// the other findings come back and the directive's line stays silent.
func TestRunPatternAppliesDirectives(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := runPattern(root, "internal/analysis/testdata/src/atomicmix", analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("expected atomicmix findings from the fixture, got none")
	}
	// One fixture file; its findings all point into it.
	src, err := os.ReadFile(diags[0].Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	const directive = "//drlint:ignore atomicmix"
	if !strings.Contains(string(src), directive) {
		t.Fatalf("the fixture no longer carries a %s directive", directive)
	}
	lines := strings.Split(string(src), "\n")
	for _, d := range diags {
		if strings.Contains(lines[d.Pos.Line-1], directive) {
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

// TestDropFamilyNoWitness pins the -no-witness opt-out: exactly the three
// compiler-witness analyzers drop out, everything else survives.
func TestDropFamilyNoWitness(t *testing.T) {
	all := analysis.All()
	kept := dropFamily(all, "compiler-witness")
	if len(kept) != len(all)-3 {
		t.Fatalf("dropFamily kept %d of %d analyzers, want %d", len(kept), len(all), len(all)-3)
	}
	for _, a := range kept {
		if a.Family == "compiler-witness" {
			t.Errorf("witness analyzer %s survived -no-witness", a.Name)
		}
	}
}
