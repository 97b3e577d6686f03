// Command drlint runs this repository's project-specific static analyzers
// over the module and exits nonzero on findings. Fourteen rules in five
// families: four syntactic (dimguard, globalrand, floatcmp,
// goroutinehygiene); three type-aware (lockhold, ctxflow, errwrap) over a
// go/types-checked view of every package; one dataflow (unsafelife) over a
// module-local call graph; three compiler-witness gates (escapegate,
// inlinegate, bcegate) that join real
// `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'` diagnostics against
// the //drlint:hotpath closure; and three determinism rules (maporder,
// seedprov, snapcapture) guarding reproducibility of reported results.
//
// Usage:
//
//	go run ./cmd/drlint ./...          # whole module
//	go run ./cmd/drlint internal/knn   # one directory
//	go run ./cmd/drlint -rules floatcmp,dimguard ./...
//	go run ./cmd/drlint -format sarif ./... > drlint.sarif
//	go run ./cmd/drlint -list
//
// Findings print as file:line:col: [rule] message (-format text) or as
// SARIF 2.1.0 for GitHub code scanning (-format sarif). Any finding fails
// the run; the one way to accept an intentional finding is a justified
// directive on the offending line or the line above:
// //drlint:ignore <rule> <reason>.
//
// The compiler-witness family shells out to the active go toolchain; when
// the toolchain is untested or its output unrecognizable the family
// degrades to disabled and a notice prints on stderr (the run still
// succeeds; CI fails the build on that notice).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// options is the parsed command line.
type options struct {
	rules  string
	list   bool
	format string
}

// registerFlags binds every option to its flag.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.rules, "rules", "", "comma-separated subset of rules to run (default: all)")
	fs.BoolVar(&o.list, "list", false, "list available rules and exit")
	fs.StringVar(&o.format, "format", "text", "output format: text or sarif")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: drlint [-rules r1,r2] [-format text|sarif] [-list] [patterns...]\n\npatterns are directories or ./... (default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if o.list {
		for _, a := range analyzers {
			family := a.Family
			if a.NeedsAnnotation {
				family += ", needs annotations"
			}
			fmt.Printf("%-16s %-30s %s\n", a.Name, "("+family+")", a.Doc)
		}
		return
	}
	if o.rules != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(o.rules, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	switch o.format {
	case "text", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "drlint: unknown -format %q (text or sarif)\n", o.format)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var failing []analysis.Diagnostic
	for _, pat := range patterns {
		diags, err := runPattern(root, pat, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		failing = append(failing, diags...)
	}

	// Surface a degraded witness layer: the run still succeeds, but the
	// user learns the three gates verified nothing this time.
	if n := analysis.WitnessNotice(); n != "" {
		fmt.Fprintln(os.Stderr, "drlint: "+n)
	}

	switch o.format {
	case "text":
		err = analysis.WriteText(os.Stdout, root, failing)
	case "sarif":
		err = analysis.WriteSARIF(os.Stdout, root, analyzers, failing)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "drlint: %d finding(s)\n", len(failing))
		os.Exit(1)
	}
}

// runPattern resolves one CLI pattern and returns the surviving findings:
// "./..." (or "all") walks the module; anything else is a single package
// directory (or dir/... subtree), relative to the module root.
func runPattern(root, pat string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	if pat == "./..." || pat == "..." || pat == "all" {
		return analysis.Run(root, analyzers)
	}
	dir := strings.TrimSuffix(pat, "/...")
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(root, dir)
	}
	if strings.HasSuffix(pat, "/...") {
		pkgs, err := analysis.LoadUnder(root, dir)
		if err != nil {
			return nil, err
		}
		return analysis.RunPackages(pkgs, analyzers), nil
	}
	pkg, err := analysis.LoadDir(root, dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("drlint: no Go files in %s", dir)
	}
	return analysis.RunPackages([]*analysis.Package{pkg}, analyzers), nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("drlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
