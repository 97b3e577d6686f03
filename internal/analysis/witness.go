package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file is the compiler-witness layer behind the escapegate, inlinegate
// and bcegate rules. Instead of re-deriving escape analysis, inlining
// decisions, or bounds-check elimination in go/ast — which would drift from
// the real optimizer — it shells out to the compiler itself:
//
//	go build -gcflags='-m=2 -d=ssa/check_bce/debug=1' <hot packages>
//
// and parses the diagnostic stream into a position-keyed fact table. The
// build cache replays diagnostics verbatim on cache hits, so repeated lint
// runs cost one cached no-op build, not a recompile.
//
// The diagnostic stream is an unstable compiler interface, so the layer is
// deliberately paranoid: it only trusts toolchains whose go version it has
// been validated against, it counts how many lines it recognized, and on an
// unknown toolchain, a failed build, or an unrecognizable stream it marks
// the whole report disabled with a reason instead of producing facts. The
// witness rules then report nothing — degraded, never wrong — and
// cmd/drlint surfaces the reason via WitnessNotice.

// witnessFlags is the exact gcflags string the witness build passes to the
// compiler: -m=2 prints escape analysis and inlining decisions, and the
// check_bce debug key prints every bounds check the SSA backend retained.
const witnessFlags = "-m=2 -d=ssa/check_bce/debug=1"

// witnessVersions are the go toolchain release prefixes this parser has
// been validated against. Anything else — older releases, future releases,
// devel builds — disables the witness rules rather than risking false
// positives against a diagnostic format that may have changed.
var witnessVersions = []string{"go1.22", "go1.23", "go1.24", "go1.25"}

// witnessReport is the parsed fact table of one witness build, keyed by
// "slash/relative/path.go:line:col" positions as the compiler prints them
// (relative to the module root the build ran in).
type witnessReport struct {
	goVersion string
	disabled  bool
	reason    string

	// escapes: positions of "X escapes to heap" facts, keyed to the
	// allocating expression. The message is the compiler's own phrasing.
	escapes map[string]string
	// moved: positions of "moved to heap: x" facts, keyed to the variable
	// declaration; the value is the variable name.
	moved map[string]string
	// inlinedCalls: call sites (keyed at the call's left parenthesis) the
	// compiler inlined ("inlining call to F").
	inlinedCalls map[string]bool
	// cannotInline: function declarations (keyed at the function name) the
	// compiler refused to inline, mapped to its reason.
	cannotInline map[string]string
	// canInline: function declarations the compiler marked inlinable.
	canInline map[string]bool
	// boundsChecks: positions where the SSA backend retained a bounds
	// check, mapped to the check kind (IsInBounds / IsSliceInBounds).
	boundsChecks map[string]string
}

func newWitnessReport(version string) *witnessReport {
	return &witnessReport{
		goVersion:    version,
		escapes:      map[string]string{},
		moved:        map[string]string{},
		inlinedCalls: map[string]bool{},
		cannotInline: map[string]string{},
		canInline:    map[string]bool{},
		boundsChecks: map[string]string{},
	}
}

func (r *witnessReport) disable(reason string) {
	r.disabled = true
	r.reason = reason
	recordWitnessNotice(reason, r.goVersion)
}

// witnessKey renders a token.Position as the compiler would print it:
// module-root-relative with forward slashes.
func witnessKey(root string, pos token.Position) string {
	name := pos.Filename
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(name), pos.Line, pos.Column)
}

// witnessRunner produces the toolchain version and the raw diagnostic
// stream for the packages under root. Swapped by tests to replay golden
// transcripts, inject malformed output, or fake a version skew.
var witnessRunner = runWitnessBuild

// runWitnessBuild executes the witness build for the given package dirs
// (module-root-relative, e.g. "internal/knn") and returns the combined
// compiler output. Build failures are reported through the error; the
// caller degrades to a disabled report rather than failing the lint run.
func runWitnessBuild(root string, dirs []string) (string, []byte, error) {
	vcmd := exec.Command("go", "env", "GOVERSION")
	vcmd.Dir = root
	vout, err := vcmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("go env GOVERSION: %w", err)
	}
	version := strings.TrimSpace(string(vout))

	args := []string{"build", "-gcflags=" + witnessFlags}
	for _, d := range dirs {
		args = append(args, "./"+filepath.ToSlash(d))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return version, out, fmt.Errorf("go build -gcflags=%s: %w", witnessFlags, err)
	}
	return version, out, nil
}

// witnessCache holds one parsed report per (root, package set): the three
// witness rules run in the same process over the same hot closure, so the
// second and third rule reuse the first one's build.
var witnessCache = struct {
	sync.Mutex
	reports map[string]*witnessReport
}{reports: map[string]*witnessReport{}}

// witnessNotice records the most recent disable reason so cmd/drlint can
// tell the user the witness rules degraded (they never fail the run).
var witnessNotice = struct {
	sync.Mutex
	msg string
}{}

func recordWitnessNotice(reason, version string) {
	witnessNotice.Lock()
	defer witnessNotice.Unlock()
	if version != "" {
		witnessNotice.msg = fmt.Sprintf("compiler-witness rules disabled: %s (%s)", reason, version)
	} else {
		witnessNotice.msg = fmt.Sprintf("compiler-witness rules disabled: %s", reason)
	}
}

// WitnessNotice returns a human-readable note when the last witness build
// left the compiler-witness rules disabled, and "" when they ran. The CLI
// prints it to stderr so a degraded run is visible without failing CI.
func WitnessNotice() string {
	witnessNotice.Lock()
	defer witnessNotice.Unlock()
	return witnessNotice.msg
}

// resetWitness clears the cache and notice; tests use it to run the same
// module against different injected runners.
func resetWitness() {
	witnessCache.Lock()
	witnessCache.reports = map[string]*witnessReport{}
	witnessCache.Unlock()
	witnessNotice.Lock()
	witnessNotice.msg = ""
	witnessNotice.Unlock()
}

// witnessFor returns the (cached) witness report for the given package
// dirs under root. It never fails: every error path yields a disabled
// report with the reason recorded.
func witnessFor(root string, dirs []string) *witnessReport {
	sorted := append([]string(nil), dirs...)
	sort.Strings(sorted)
	key := root + "\x00" + strings.Join(sorted, "\x00")

	witnessCache.Lock()
	defer witnessCache.Unlock()
	if r, ok := witnessCache.reports[key]; ok {
		return r
	}
	version, out, err := witnessRunner(root, sorted)
	var r *witnessReport
	if err != nil {
		r = newWitnessReport(version)
		r.disable("witness build failed: " + firstLine(err.Error()))
	} else {
		r = parseWitness(version, out)
	}
	witnessCache.reports[key] = r
	return r
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// witnessVersionSupported reports whether the toolchain release is one the
// parser has been validated against.
func witnessVersionSupported(version string) bool {
	for _, p := range witnessVersions {
		if version == p || strings.HasPrefix(version, p+".") {
			return true
		}
	}
	return false
}

// parseWitness classifies every line of the compiler diagnostic stream
// into the fact tables. Unknown toolchains and streams with no
// recognizable diagnostics disable the report instead of guessing.
func parseWitness(version string, out []byte) *witnessReport {
	r := newWitnessReport(version)
	if !witnessVersionSupported(version) {
		r.disable("untested toolchain")
		return r
	}
	recognized := 0
	for _, line := range strings.Split(string(out), "\n") {
		if parseWitnessLine(r, line) {
			recognized++
		}
	}
	if recognized == 0 {
		r.disable("unrecognized compiler output")
	}
	return r
}

// parseWitnessLine parses one diagnostic line into r, reporting whether
// the line was recognized. Unrecognized lines are ignored individually;
// only a stream with zero recognized lines disables the report.
func parseWitnessLine(r *witnessReport, line string) bool {
	line = strings.TrimSuffix(line, "\r")
	if line == "" {
		return false
	}
	if strings.HasPrefix(line, "# ") {
		return true // package header
	}
	file, lineNo, col, msg, ok := splitDiagnostic(line)
	if !ok {
		return false
	}
	if strings.HasPrefix(file, "<") || filepath.IsAbs(file) {
		// Autogenerated wrappers and stdlib positions carry no source
		// position in this module; recognized but unusable.
		return true
	}
	key := fmt.Sprintf("%s:%d:%d", strings.TrimPrefix(filepath.ToSlash(file), "./"), lineNo, col)
	switch {
	case strings.HasPrefix(msg, " "):
		return true // escape-flow continuation ("  flow: ...", "    from ...")
	case strings.HasPrefix(msg, "inlining call to "):
		r.inlinedCalls[key] = true
	case strings.HasPrefix(msg, "can inline "):
		r.canInline[key] = true
	case strings.HasPrefix(msg, "cannot inline "):
		reason := strings.TrimPrefix(msg, "cannot inline ")
		if i := strings.Index(reason, ": "); i >= 0 {
			reason = reason[i+2:]
		}
		r.cannotInline[key] = reason
	case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
		r.boundsChecks[key] = strings.TrimPrefix(msg, "Found ")
	case strings.HasPrefix(msg, "moved to heap: "):
		r.moved[key] = strings.TrimPrefix(msg, "moved to heap: ")
	case strings.HasSuffix(msg, " escapes to heap") || strings.HasSuffix(msg, " escapes to heap:"):
		r.escapes[key] = strings.TrimSuffix(strings.TrimSuffix(msg, ":"), " escapes to heap")
	case strings.Contains(msg, "does not escape"),
		strings.HasPrefix(msg, "leaking param"),
		strings.HasPrefix(msg, "parameter "),
		strings.Contains(msg, "ignoring self-assignment"),
		strings.HasPrefix(msg, "mark inlined call"),
		strings.HasPrefix(msg, "escapes to heap"):
		// Recognized no-ops: parameter leak annotations and non-escape
		// confirmations carry no gate-relevant fact.
	default:
		return false
	}
	return true
}

// witnessContext joins the //drlint:hotpath call-graph closure with the
// witness report for the packages that closure touches. It is the shared
// entry point of the three compiler-witness rules; when it returns nil the
// rule has nothing to do (no annotations, no module root, or a disabled
// witness build).
type witnessContext struct {
	graph  *callGraph
	hot    map[*types.Func]string
	root   string
	report *witnessReport
}

func newWitnessContext(pass *ModulePass) *witnessContext {
	g := buildCallGraph(pass)
	var roots []*types.Func
	for _, fi := range g.funcs {
		if hasHotpathDirective(fi.decl) {
			roots = append(roots, fi.obj)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	hot := g.reach(roots)
	root := moduleRootOf(pass)
	if root == "" {
		return nil
	}
	dirSet := map[string]bool{}
	for _, fi := range g.funcs {
		if _, ok := hot[fi.obj]; ok {
			dirSet[fi.pkg.Dir] = true
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	report := witnessFor(root, dirs)
	if report.disabled {
		return nil
	}
	return &witnessContext{graph: g, hot: hot, root: root, report: report}
}

// moduleRootOf recovers the directory the packages were loaded from by
// stripping a package's root-relative Dir from one of its file paths.
func moduleRootOf(pass *ModulePass) string {
	for _, pkg := range pass.Pkgs {
		if len(pkg.Files) == 0 {
			continue
		}
		dir := filepath.Dir(pkg.Files[0].Name)
		if pkg.Dir == "." || pkg.Dir == "" {
			return dir
		}
		suffix := filepath.FromSlash(pkg.Dir)
		if dir == suffix {
			return "."
		}
		if strings.HasSuffix(dir, string(filepath.Separator)+suffix) {
			return strings.TrimSuffix(dir, string(filepath.Separator)+suffix)
		}
	}
	return ""
}

// hotWhere renders the hot-path attribution for gate messages.
func hotWhere(fi *funcInfo, root string) string {
	name := qualifiedName(fi.obj)
	if name == root {
		return "hot path " + name
	}
	return "hot path (reached from " + root + ")"
}

// splitDiagnostic splits "file:line:col: message" without a regexp; the
// message keeps its leading spaces so continuation lines stay detectable.
func splitDiagnostic(s string) (file string, line, col int, msg string, ok bool) {
	// Scan for ":<digits>:<digits>: " left to right so Windows drive
	// letters or colons in file names cannot confuse the split.
	for i := 0; i < len(s); i++ {
		if s[i] != ':' {
			continue
		}
		j := i + 1
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i+1 || j >= len(s) || s[j] != ':' {
			continue
		}
		k := j + 1
		for k < len(s) && s[k] >= '0' && s[k] <= '9' {
			k++
		}
		if k == j+1 || k+1 >= len(s) || s[k] != ':' || s[k+1] != ' ' {
			continue
		}
		ln, cn := 0, 0
		for _, c := range s[i+1 : j] {
			ln = ln*10 + int(c-'0')
		}
		for _, c := range s[j+1 : k] {
			cn = cn*10 + int(c-'0')
		}
		return s[:i], ln, cn, s[k+2:], true
	}
	return "", 0, 0, "", false
}
