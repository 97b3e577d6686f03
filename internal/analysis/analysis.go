// Package analysis is a project-specific static-analysis framework for the
// numeric, concurrency, and reproducibility invariants this codebase relies
// on but the Go compiler cannot check. It is stdlib-only (go/ast, go/parser,
// go/token, go/types): the loader parses every package of the module and
// type-checks it with a file-system importer over the module's own packages
// plus a source importer for the standard library, so analyzers see
// resolved objects, method sets, and underlying types instead of raw
// identifiers.
//
// Four syntactic rules enforce kernel and determinism contracts:
//
//   - dimguard: exported linalg/knn kernels taking ≥2 vector or matrix
//     arguments must validate dimensions before indexing.
//   - globalrand: randomness must flow through an injected seeded
//     *rand.Rand — no global math/rand state, no hardcoded literal seeds in
//     library code.
//   - floatcmp: no ==/!= between floating-point expressions outside tests
//     (comparison against the exact literal 0 is allowed).
//   - goroutinehygiene: every `go` statement launched inside a loop must be
//     paired with a sync.WaitGroup Add/Done (or a result-channel handshake)
//     in the same function.
//
// Three type-aware rules enforce the serving layer's concurrency and
// error-contract idioms:
//
//   - lockhold: no blocking operation (channel send/receive, selects
//     without a default, Wait, time.Sleep, or a call into a same-package
//     function that blocks) while a sync.Mutex/RWMutex is held in
//     internal/serve.
//   - ctxflow: exported context-accepting functions in internal/serve must
//     propagate their context to every context-accepting call they make;
//     context.Background()/TODO() is reserved for main and tests.
//   - errwrap: the serving layer's typed sentinel errors must be compared
//     with errors.Is and wrapped with %w — never ==/!=, switch cases, or
//     string matching on Error() text.
//
// One dataflow rule reasons over a module-local call graph:
//
//   - unsafelife: mmap-derived views must stay confined to their mapping's
//     lifetime — no escaping to globals, returns past Close, or goroutines.
//
// Three compiler-witness rules join real `go build` diagnostics
// (-gcflags='-m=2 -d=ssa/check_bce/debug=1') against the hot-path closure,
// gating on what the compiler did rather than what the source suggests
// (see witness.go; the family degrades to disabled on toolchain skew):
//
//   - escapegate: no compiler-witnessed heap escape or moved-to-heap local
//     in a function reachable from a //drlint:hotpath annotation, unless
//     exempted (pool refills, result materialization, cold error paths).
//   - inlinegate: non-inlined calls in a hot function must fit the
//     function's declared budget (//drlint:hotpath inline=N).
//   - bcegate: no retained bounds check inside loops of asm-adjacent
//     kernels (internal/linalg, internal/store scan kernels).
//
// Three determinism rules guard reproducibility of reported results:
//
//   - maporder: map iteration order must not flow into slices that are
//     returned or sent, ordered sinks like knn.Collector.Offer, or JSON
//     encoding, without an intervening sort.
//   - seedprov: RNG seeds must come from configuration, flags, or fixed
//     literals — not time, PIDs, map order, or channel scheduling.
//   - snapcapture: an atomic snapshot pointer must be loaded once per
//     scope and reused, never re-loaded (a TOCTOU race window).
//
// Findings can be suppressed with a justified directive on the offending
// line or the line above it:
//
//	//drlint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a directive names exactly the rules it silences.
// There is no other way to accept a finding: any surviving one fails the run.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// File is one parsed source file of a package.
type File struct {
	AST  *ast.File
	Name string // path as given to the parser
	Test bool   // *_test.go
}

// Package is a directory of parsed files sharing one *token.FileSet.
// After loading, the non-test files are type-checked: Types is the
// resulting package object, TypesInfo maps expressions and identifiers to
// their resolved types and objects, and TypeErrors collects go/types
// failures (empty on a compilable package). Test files are parsed but not
// type-checked; packages with only test files stay untyped (TypesInfo nil).
type Package struct {
	Dir   string // directory relative to the module root (".", "internal/knn", ...)
	Path  string // import path ("repro/internal/knn")
	Fset  *token.FileSet
	Files []File

	Types      *types.Package
	TypesInfo  *types.Info
	TypeErrors []error
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// ModulePass carries one module-scope analyzer's run over every loaded
// package at once. Rules that need a cross-package view — a call graph, or
// taint that flows through another package's constructor — run here instead
// of package by package. Findings are attributed to the package owning the
// file they point at, so //drlint:ignore directives filter them exactly
// like package-scope findings.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	diags    []Diagnostic
}

// Reportf records a finding at pos, resolved through pkg's FileSet.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// SourceFiles returns pkg's files, skipping tests when the analyzer does
// not apply to them (mirrors Pass.SourceFiles).
func (p *ModulePass) SourceFiles(pkg *Package) []File {
	if p.Analyzer.IncludeTests {
		return pkg.Files
	}
	out := make([]File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		if !f.Test {
			out = append(out, f)
		}
	}
	return out
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// SourceFiles returns the package's files, skipping tests when the analyzer
// does not apply to them.
func (p *Pass) SourceFiles() []File {
	if p.Analyzer.IncludeTests {
		return p.Pkg.Files
	}
	out := make([]File, 0, len(p.Pkg.Files))
	for _, f := range p.Pkg.Files {
		if !f.Test {
			out = append(out, f)
		}
	}
	return out
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	// Family classifies how deep the rule looks: "syntactic" (pure AST),
	// "type-aware" (needs go/types objects), or "dataflow" (value/alias
	// tracking over the module call graph). Informational — drives the
	// cmd/drlint -list output.
	Family string
	// NeedsAnnotation marks rules that only fire on code opted in via a
	// source annotation (e.g. escapegate's //drlint:hotpath roots).
	NeedsAnnotation bool
	// IncludeTests runs the rule over *_test.go files too. All shipped
	// analyzers enforce production invariants and leave tests alone.
	IncludeTests bool
	// NeedsTypes marks rules that require a successful type check; they
	// skip packages whose TypesInfo is unavailable.
	NeedsTypes bool
	// Exactly one of Run (package scope) and RunModule (module scope) is
	// set. Module-scope rules see every loaded package in one pass.
	Run       func(pass *Pass)
	RunModule func(pass *ModulePass)
}

// All returns the analyzers this project enforces, in stable order: the
// four syntactic rules from the first drlint, the three type-aware rules,
// the dataflow rule, the three compiler-witness gates, and the three
// determinism rules.
func All() []*Analyzer {
	return []*Analyzer{
		DimGuard, GlobalRand, FloatCmp, GoroutineHygiene,
		LockHold, CtxFlow, ErrWrap,
		UnsafeLife,
		EscapeGate, InlineGate, BceGate,
		MapOrder, SeedProv, SnapCapture,
	}
}

// ByName returns the subset of All whose names appear in names, erroring on
// unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackages applies each analyzer to each package and returns the
// surviving diagnostics (directive-suppressed findings removed, type-check
// errors included under the rule name "typecheck"), sorted by position.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	for i, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.NeedsTypes && pkg.TypesInfo == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &perPkg[i]}
			a.Run(pass)
		}
		perPkg[i] = append(perPkg[i], typeErrorDiagnostics(pkg)...)
	}

	// Module-scope analyzers run once over the whole package set; their
	// findings are routed back to the package owning each file so directive
	// filtering applies uniformly.
	var diags []Diagnostic
	fileOwner := map[string]int{}
	for i, pkg := range pkgs {
		for _, f := range pkg.Files {
			fileOwner[pkg.Fset.Position(f.AST.Pos()).Filename] = i
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Analyzer: a, Pkgs: pkgs}
		a.RunModule(mp)
		for _, d := range mp.diags {
			if i, ok := fileOwner[d.Pos.Filename]; ok {
				perPkg[i] = append(perPkg[i], d)
			} else {
				// Positions outside any loaded Go file (none today; a
				// belt-and-braces route for future rules) skip directive
				// filtering — there is no file to carry a directive.
				diags = append(diags, d)
			}
		}
	}

	for i, pkg := range pkgs {
		diags = append(diags, filterIgnored(pkg, perPkg[i])...)
	}
	return sortDiagnostics(diags)
}

// sortDiagnostics orders findings by (file, line, column, rule, message) and
// collapses exact duplicates. A file compiled into more than one package unit
// (e.g. a non-test file seen by both the package and its external test
// harness) would otherwise surface module-scope findings twice, and output
// order would depend on package iteration order.
func sortDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := diags[i-1]
			if p.Pos == d.Pos && p.Rule == d.Rule && p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// Run loads every package under root and applies the analyzers.
func Run(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(root)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers), nil
}
