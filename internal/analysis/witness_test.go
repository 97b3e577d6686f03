package analysis

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatalf("reading golden %s: %v", name, err)
	}
	return data
}

// TestParseWitnessGolden pins the parser against a committed transcript in
// the go1.22–go1.25 diagnostic format: every fact kind must land in its
// table at the position the compiler printed.
func TestParseWitnessGolden(t *testing.T) {
	r := parseWitness("go1.24.0", readGolden(t, "witness_go1.24.txt"))
	if r.disabled {
		t.Fatalf("golden transcript disabled the report: %s", r.reason)
	}
	if !r.canInline["kernel/scan.go:12:6"] {
		t.Errorf("can-inline fact missing: %v", r.canInline)
	}
	if got := r.cannotInline["kernel/scan.go:20:6"]; got != "recursive" {
		t.Errorf("cannot-inline reason = %q, want %q", got, "recursive")
	}
	if got := r.cannotInline["kernel/scan.go:30:6"]; got != "function too complex: cost 87 exceeds budget 80" {
		t.Errorf("cannot-inline reason = %q, want the cost message", got)
	}
	if !r.inlinedCalls["kernel/scan.go:33:14"] {
		t.Errorf("inlined-call fact missing: %v", r.inlinedCalls)
	}
	if got := r.boundsChecks["kernel/scan.go:50:11"]; got != "IsInBounds" {
		t.Errorf("bounds fact = %q, want IsInBounds", got)
	}
	if got := r.boundsChecks["kernel/scan.go:51:15"]; got != "IsSliceInBounds" {
		t.Errorf("bounds fact = %q, want IsSliceInBounds", got)
	}
	// Recognized no-ops must not invent facts.
	if len(r.boundsChecks) != 2 {
		t.Errorf("bounds table has %d entries, want 2: %v", len(r.boundsChecks), r.boundsChecks)
	}
}

// TestParseWitnessMalformed proves graceful degradation: a stream with no
// recognizable diagnostics (here: a usage error) disables the report
// instead of producing facts or failing the run.
func TestParseWitnessMalformed(t *testing.T) {
	resetWitness()
	defer resetWitness()
	r := parseWitness("go1.24.0", readGolden(t, "witness_malformed.txt"))
	if !r.disabled {
		t.Fatal("malformed stream did not disable the report")
	}
	if r.reason != "unrecognized compiler output" {
		t.Fatalf("reason = %q, want %q", r.reason, "unrecognized compiler output")
	}
	if n := WitnessNotice(); !strings.Contains(n, "disabled") {
		t.Fatalf("WitnessNotice() = %q, want it to report the rules disabled", n)
	}
}

// TestParseWitnessVersionSkew proves the parser refuses toolchains it has
// not been validated against, reporting the rules disabled with the
// version in the notice.
func TestParseWitnessVersionSkew(t *testing.T) {
	resetWitness()
	defer resetWitness()
	r := parseWitness("go1.99.0", readGolden(t, "witness_go1.24.txt"))
	if !r.disabled || r.reason != "untested toolchain" {
		t.Fatalf("version skew: disabled=%v reason=%q, want disabled with untested toolchain", r.disabled, r.reason)
	}
	n := WitnessNotice()
	if !strings.Contains(n, "disabled") || !strings.Contains(n, "go1.99.0") {
		t.Fatalf("WitnessNotice() = %q, want disabled notice naming go1.99.0", n)
	}
}

func TestWitnessVersionSupported(t *testing.T) {
	for _, v := range []string{"go1.22", "go1.22.4", "go1.23.1", "go1.24.0", "go1.25.1"} {
		if !witnessVersionSupported(v) {
			t.Errorf("version %s should be supported", v)
		}
	}
	for _, v := range []string{"go1.21.13", "go1.220", "go1.99.0", "devel +abc123", ""} {
		if witnessVersionSupported(v) {
			t.Errorf("version %q should not be supported", v)
		}
	}
}

// TestWitnessForBuildFailure injects a failing runner: the report degrades
// to disabled with the first error line as the reason, and the cache keeps
// the degraded report instead of retrying every rule.
func TestWitnessForBuildFailure(t *testing.T) {
	resetWitness()
	calls := 0
	old := witnessRunner
	witnessRunner = func(root string, dirs []string) (string, []byte, error) {
		calls++
		return "go1.24.0", nil, errors.New("exit status 1\ncompile: blah")
	}
	defer func() { witnessRunner = old; resetWitness() }()

	r := witnessFor("/nonexistent", []string{"a", "b"})
	if !r.disabled || !strings.Contains(r.reason, "witness build failed: exit status 1") {
		t.Fatalf("disabled=%v reason=%q, want a build-failure reason", r.disabled, r.reason)
	}
	if r2 := witnessFor("/nonexistent", []string{"b", "a"}); r2 != r || calls != 1 {
		t.Fatalf("cache miss on permuted dirs: calls=%d", calls)
	}
}

// TestWitnessRulesDegradeOnMalformedOutput runs the two gate rules over a
// fixture that WOULD produce findings, with the runner returning garbage:
// every rule must report nothing and the notice must say disabled.
func TestWitnessRulesDegradeOnMalformedOutput(t *testing.T) {
	resetWitness()
	old := witnessRunner
	witnessRunner = func(root string, dirs []string) (string, []byte, error) {
		return "go1.24.0", readGolden(t, "witness_malformed.txt"), nil
	}
	defer func() { witnessRunner = old; resetWitness() }()

	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, "inlinegate"))
	if err != nil || pkg == nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunPackages([]*Package{pkg}, []*Analyzer{InlineGate, BceGate})
	if len(diags) != 0 {
		t.Fatalf("witness rules fired on a disabled report: %v", diags)
	}
	if n := WitnessNotice(); !strings.Contains(n, "disabled") {
		t.Fatalf("WitnessNotice() = %q, want a disabled notice", n)
	}
}

// TestWitnessRulesDegradeOnVersionSkew is the same degradation through the
// untested-toolchain path.
func TestWitnessRulesDegradeOnVersionSkew(t *testing.T) {
	resetWitness()
	old := witnessRunner
	witnessRunner = func(root string, dirs []string) (string, []byte, error) {
		return "go1.99.0", readGolden(t, "witness_go1.24.txt"), nil
	}
	defer func() { witnessRunner = old; resetWitness() }()

	root := filepath.Join("testdata", "src")
	pkg, err := LoadDir(root, filepath.Join(root, "inlinegate"))
	if err != nil || pkg == nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunPackages([]*Package{pkg}, []*Analyzer{InlineGate, BceGate})
	if len(diags) != 0 {
		t.Fatalf("witness rules fired on an untested toolchain: %v", diags)
	}
	if n := WitnessNotice(); !strings.Contains(n, "disabled") || !strings.Contains(n, "untested toolchain") {
		t.Fatalf("WitnessNotice() = %q, want an untested-toolchain disabled notice", n)
	}
}

func TestSplitDiagnostic(t *testing.T) {
	cases := []struct {
		in        string
		file      string
		line, col int
		msg       string
		ok        bool
	}{
		{"a/b.go:3:7: Found IsInBounds", "a/b.go", 3, 7, "Found IsInBounds", true},
		{"a/b.go:3:7:   flow: x", "a/b.go", 3, 7, "  flow: x", true},
		{"C:/x/y.go:12:1: moved to heap: v", "C:/x/y.go", 12, 1, "moved to heap: v", true},
		{"no diagnostic here", "", 0, 0, "", false},
		{"<autogenerated>:1: inlining call to f", "", 0, 0, "", false},
	}
	for _, c := range cases {
		file, line, col, msg, ok := splitDiagnostic(c.in)
		if ok != c.ok || file != c.file || line != c.line || col != c.col || msg != c.msg {
			t.Errorf("splitDiagnostic(%q) = (%q,%d,%d,%q,%v), want (%q,%d,%d,%q,%v)",
				c.in, file, line, col, msg, ok, c.file, c.line, c.col, c.msg, c.ok)
		}
	}
}

// FuzzWitnessParser hammers the diagnostic parser with mutated transcripts,
// seeded from the committed golden. The parser must never panic, must keep
// every fact key in file:line:col form, and must set a reason whenever it
// disables the report.
func FuzzWitnessParser(f *testing.F) {
	golden := readGolden(f, "witness_go1.24.txt")
	f.Add(string(golden))
	for _, line := range strings.Split(string(golden), "\n") {
		f.Add(line)
	}
	f.Add("x.go:1:2: Found IsInBounds")
	f.Add("x.go:3:4: cannot inline f: recursive")
	f.Add("x.go:5:6: moved to heap: v\nx.go:5:7: y escapes to heap")
	f.Add("x.go:1:2: \r\n# pkg\n::::")
	f.Fuzz(func(t *testing.T, out string) {
		r := parseWitness("go1.24.0", []byte(out))
		if r.disabled && r.reason == "" {
			t.Fatal("disabled report without a reason")
		}
		for _, m := range []map[string]string{r.cannotInline, r.boundsChecks} {
			for key := range m {
				if _, _, _, ok := splitWitnessKey(key); !ok {
					t.Fatalf("malformed fact key %q", key)
				}
			}
		}
		for _, m := range []map[string]bool{r.inlinedCalls, r.canInline} {
			for key := range m {
				if _, _, _, ok := splitWitnessKey(key); !ok {
					t.Fatalf("malformed fact key %q", key)
				}
			}
		}
	})
}
