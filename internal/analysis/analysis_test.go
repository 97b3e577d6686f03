package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expectation annotations in fixtures: // want "regexp"
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)+)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads one testdata package, runs a single analyzer (with
// suppression filtering), and checks the diagnostics against the fixture's
// // want annotations: every want must fire and every diagnostic must be
// wanted.
func runFixture(t *testing.T, a *Analyzer, dir, pretendPath string) {
	t.Helper()
	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	if pretendPath != "" {
		pkg.Path = pretendPath
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}

	diags := RunPackages([]*Package{pkg}, []*Analyzer{a})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDimGuardFixture(t *testing.T) {
	runFixture(t, DimGuard, "dimguard", "repro/internal/linalg")
}

func TestDimGuardSkipsOtherPackages(t *testing.T) {
	// The same fixture under a non-kernel import path must be silent.
	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, "dimguard"))
	if err != nil || pkg == nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg.Path = "repro/internal/experiments"
	if diags := RunPackages([]*Package{pkg}, []*Analyzer{DimGuard}); len(diags) != 0 {
		t.Fatalf("dimguard fired outside its packages: %v", diags)
	}
}

func TestGlobalRandFixture(t *testing.T) {
	runFixture(t, GlobalRand, "globalrand", "")
}

func TestFloatCmpFixture(t *testing.T) {
	runFixture(t, FloatCmp, "floatcmp", "")
}

func TestGoroutineHygieneFixture(t *testing.T) {
	runFixture(t, GoroutineHygiene, "goroutinehygiene", "")
}

func TestLockHoldFixture(t *testing.T) {
	runFixture(t, LockHold, "lockhold", "repro/internal/serve")
}

func TestLockHoldSkipsOtherPackages(t *testing.T) {
	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, "lockhold"))
	if err != nil || pkg == nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg.Path = "repro/internal/knn"
	if diags := RunPackages([]*Package{pkg}, []*Analyzer{LockHold}); len(diags) != 0 {
		t.Fatalf("lockhold fired outside internal/serve: %v", diags)
	}
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, CtxFlow, "ctxflow", "repro/internal/serve")
}

func TestCtxFlowSkipsOtherPackages(t *testing.T) {
	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, "ctxflow"))
	if err != nil || pkg == nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg.Path = "repro/internal/linalg"
	if diags := RunPackages([]*Package{pkg}, []*Analyzer{CtxFlow}); len(diags) != 0 {
		t.Fatalf("ctxflow fired outside its packages: %v", diags)
	}
}

func TestErrWrapFixture(t *testing.T) {
	runFixture(t, ErrWrap, "errwrap", "")
}

func TestUnsafeLifeStoreFixture(t *testing.T) {
	// Under the store's own import path: taint, escape, and liveness checks.
	runFixture(t, UnsafeLife, "unsafelife", "repro/internal/store")
}

func TestUnsafeLifeConfinementFixture(t *testing.T) {
	// Under any other import path every unsafe use is flagged outright.
	runFixture(t, UnsafeLife, "unsafeleak", "repro/internal/leak")
}

// requireWitnessToolchain skips tests that need a real witness build: the
// compiler-witness fixtures run `go build` against the nested fixture
// module under testdata/src, which requires a go tool whose diagnostic
// format the parser has been validated against.
func requireWitnessToolchain(t *testing.T) {
	t.Helper()
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		t.Skipf("no go tool available: %v", err)
	}
	if v := strings.TrimSpace(string(out)); !witnessVersionSupported(v) {
		t.Skipf("witness parser not validated against %s; gates degrade to disabled", v)
	}
}

func TestEscapeGateFixture(t *testing.T) {
	requireWitnessToolchain(t)
	runFixture(t, EscapeGate, "escapegate", "")
}

func TestInlineGateFixture(t *testing.T) {
	requireWitnessToolchain(t)
	runFixture(t, InlineGate, "inlinegate", "")
}

func TestBceGateFixture(t *testing.T) {
	requireWitnessToolchain(t)
	// The fixture pretends to be the kernel package; bcegate is scoped to
	// internal/linalg and the store's scanBlock family.
	runFixture(t, BceGate, "bcegate", "repro/internal/linalg")
}

func TestBceGateSkipsOtherPackages(t *testing.T) {
	requireWitnessToolchain(t)
	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, "bcegate"))
	if err != nil || pkg == nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg.Path = "repro/internal/experiments"
	if diags := RunPackages([]*Package{pkg}, []*Analyzer{BceGate}); len(diags) != 0 {
		t.Fatalf("bcegate fired outside the kernel packages: %v", diags)
	}
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, MapOrder, "maporder", "")
}

func TestMapOrderCollectorFixture(t *testing.T) {
	// The knn stand-in package carries the /internal/knn path suffix the
	// Collector.Offer sink matching keys on.
	runFixture(t, MapOrder, filepath.Join("internal", "knn"), "")
}

func TestSeedProvFixture(t *testing.T) {
	runFixture(t, SeedProv, "seedprov", "")
}

func TestSnapCaptureFixture(t *testing.T) {
	runFixture(t, SnapCapture, "snapcapture", "repro/internal/serve")
}

func TestSnapCaptureSkipsOtherPackages(t *testing.T) {
	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, "snapcapture"))
	if err != nil || pkg == nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg.Path = "repro/internal/store"
	if diags := RunPackages([]*Package{pkg}, []*Analyzer{SnapCapture}); len(diags) != 0 {
		t.Fatalf("snapcapture fired outside internal/serve: %v", diags)
	}
}

func TestSortDiagnosticsDedup(t *testing.T) {
	mk := func(file string, line, col int, rule, msg string) Diagnostic {
		return Diagnostic{
			Pos:     token.Position{Filename: file, Line: line, Column: col},
			Rule:    rule,
			Message: msg,
		}
	}
	dup := mk("b.go", 4, 2, "maporder", "dup finding")
	in := []Diagnostic{
		mk("b.go", 9, 1, "seedprov", "later"),
		dup,
		mk("a.go", 1, 1, "floatcmp", "first"),
		dup,
		mk("b.go", 4, 2, "maporder", "same position, different message"),
	}
	out := sortDiagnostics(in)
	if len(out) != 4 {
		t.Fatalf("want 4 diagnostics after dedup, got %d: %v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
	seen := map[string]bool{}
	for _, d := range out {
		k := d.String()
		if seen[k] {
			t.Fatalf("duplicate survived dedup: %s", k)
		}
		seen[k] = true
	}
}

// parseSrc builds an in-memory single-file package for directive tests.
func parseSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{Dir: ".", Path: "repro/fixture", Fset: fset, Files: []File{{AST: f, Name: "src.go"}}}
}

func TestMalformedDirectiveIsReported(t *testing.T) {
	pkg := parseSrc(t, `package p

//drlint:ignore floatcmp
var x = 1
`)
	diags := RunPackages([]*Package{pkg}, All())
	if len(diags) != 1 || diags[0].Rule != "drlint" || !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("want one malformed-directive finding, got %v", diags)
	}
}

func TestDirectiveRequiresReason(t *testing.T) {
	pkg := parseSrc(t, `package p

//drlint:ignore
var x = 1
`)
	diags := RunPackages([]*Package{pkg}, All())
	if len(diags) != 1 || diags[0].Rule != "drlint" {
		t.Fatalf("want one malformed-directive finding, got %v", diags)
	}
}

func TestDirectiveSameLineSuppresses(t *testing.T) {
	pkg := parseSrc(t, `package p

func cmp(a, b float64) bool {
	return a == b //drlint:ignore floatcmp exactness intended here
}
`)
	if diags := RunPackages([]*Package{pkg}, []*Analyzer{FloatCmp}); len(diags) != 0 {
		t.Fatalf("same-line directive did not suppress: %v", diags)
	}
}

func TestDirectiveMultiRule(t *testing.T) {
	pkg := parseSrc(t, `package p

import "math/rand"

func draw(a, b float64) float64 {
	//drlint:ignore globalrand,floatcmp one directive may cover several rules
	if a != b && rand.Float64() > 0.5 {
		return a
	}
	return b
}
`)
	if diags := RunPackages([]*Package{pkg}, All()); len(diags) != 0 {
		t.Fatalf("multi-rule directive did not suppress: %v", diags)
	}
}

func TestDirectiveDoesNotLeakToOtherLines(t *testing.T) {
	pkg := parseSrc(t, `package p

func cmp(a, b float64) bool {
	//drlint:ignore floatcmp covers only the next line
	_ = a == b
	return a != b
}
`)
	diags := RunPackages([]*Package{pkg}, []*Analyzer{FloatCmp})
	if len(diags) != 1 {
		t.Fatalf("want exactly the uncovered comparison reported, got %v", diags)
	}
}

// loadTempPkg writes src as a one-file package in a temp dir and loads it
// with the type-checking loader, so type-aware rules see resolved objects.
func loadTempPkg(t *testing.T, src string) (string, *Package) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, dir)
	if err != nil || pkg == nil {
		t.Fatalf("loading temp package: %v", err)
	}
	return dir, pkg
}

// errTextViolation needs the type checker to be a finding at all: err.Error
// is flagged only because err resolves to the error interface.
const errTextViolation = `package p

func timedOut(err error) bool {
	return err.Error() == "deadline exceeded" %s
}
`

func TestDirectiveSuppressesTypeAwareFinding(t *testing.T) {
	_, pkg := loadTempPkg(t, fmt.Sprintf(errTextViolation,
		"//drlint:ignore errwrap third-party error with no sentinel to match"))
	if diags := RunPackages([]*Package{pkg}, []*Analyzer{ErrWrap}); len(diags) != 0 {
		t.Fatalf("directive did not suppress: %v", diags)
	}
}

func TestDirectiveWrongRuleDoesNotSuppress(t *testing.T) {
	_, pkg := loadTempPkg(t, fmt.Sprintf(errTextViolation,
		"//drlint:ignore floatcmp names the wrong rule"))
	diags := RunPackages([]*Package{pkg}, []*Analyzer{ErrWrap})
	if len(diags) != 1 || diags[0].Rule != "errwrap" {
		t.Fatalf("want the errwrap finding to survive a wrong-rule directive, got %v", diags)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName([]string{"floatcmp", "dimguard"})
	if err != nil || len(got) != 2 || got[0] != FloatCmp || got[1] != DimGuard {
		t.Fatalf("ByName: got %v, %v", got, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Rule:    "floatcmp",
		Message: "msg",
	}
	if got, want := d.String(), "a/b.go:3:7: [floatcmp] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestAllAnalyzersHaveDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	families := map[string]bool{
		"syntactic":        true,
		"type-aware":       true,
		"dataflow":         true,
		"compiler-witness": true,
		"determinism":      true,
	}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Fatalf("analyzer %+v incomplete", a)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Fatalf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
		if !families[a.Family] {
			t.Fatalf("analyzer %q has unknown family %q", a.Name, a.Family)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 14 {
		t.Fatalf("want 14 analyzers, got %d", len(seen))
	}
}

func TestLoadSkipsTestdata(t *testing.T) {
	pkgs, err := Load(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Fatalf("Load descended into %s", p.Dir)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("Load found no packages")
	}
}

func ExampleDiagnostic() {
	d := Diagnostic{
		Pos:     token.Position{Filename: "internal/knn/knn.go", Line: 88, Column: 18},
		Rule:    "floatcmp",
		Message: "floating-point != comparison",
	}
	fmt.Println(d)
	// Output: internal/knn/knn.go:88:18: [floatcmp] floating-point != comparison
}
