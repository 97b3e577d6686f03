package analysis

import (
	"fmt"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// modulePath is the import-path prefix of this module (go.mod `module`).
// The loader is deliberately go.mod-free; a wrong value only affects the
// Path field analyzers match package identity against.
const modulePath = "repro"

// Load walks the module rooted at root, parses every Go package directory
// into a Package, and type-checks each package with go/types so analyzers
// see resolved objects instead of raw identifiers. `testdata`, hidden, and
// vendor directories are skipped, matching the go tool's conventions.
func Load(root string) ([]*Package, error) {
	return LoadUnder(root, root)
}

// LoadUnder is Load restricted to the subtree at dir; package import paths
// are still computed relative to the module root so path-scoped analyzers
// (dimguard, lockhold, snapcapture) resolve identically to a full-module run,
// and imports of packages outside the subtree are loaded on demand for
// type checking.
func LoadUnder(root, dir string) ([]*Package, error) {
	var dirs []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking %s: %w", root, err)
	}
	sort.Strings(dirs)

	fset := token.NewFileSet()
	chk := newChecker(root, fset)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := parseDir(root, dir, fset)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
			chk.byPath[pkg.Path] = pkg
		}
	}
	typecheckAll(chk, pkgs)
	return pkgs, nil
}

// LoadDir parses and type-checks the single directory dir (which must be
// root or inside it) as one Package, or returns nil when it contains no Go
// files.
func LoadDir(root, dir string) (*Package, error) {
	fset := token.NewFileSet()
	pkg, err := parseDir(root, dir, fset)
	if err != nil || pkg == nil {
		return pkg, err
	}
	chk := newChecker(root, fset)
	chk.byPath[pkg.Path] = pkg
	typecheckAll(chk, []*Package{pkg})
	return pkg, nil
}

// parseDir parses one directory's Go files into a Package (no type check).
// Files excluded by their build constraints for the host GOOS/GOARCH are
// skipped, exactly as `go build` would skip them — so a package that pairs
// kernel_amd64.go with kernel_noasm.go contributes one implementation, not
// two conflicting ones, to the type check.
func parseDir(root, dir string, fset *token.FileSet) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		rel = dir
	}
	pkg := &Package{
		Dir:  filepath.ToSlash(rel),
		Path: importPath(rel),
		Fset: fset,
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !buildFileIncluded(name, src) {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, File{
			AST:  f,
			Name: path,
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

func importPath(rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." || rel == "" {
		return modulePath
	}
	return modulePath + "/" + rel
}

// buildFileIncluded reports whether the file participates in a build for
// the host GOOS/GOARCH, honoring both filename suffixes (_amd64.go,
// _linux_amd64.go) and //go:build constraint lines.
func buildFileIncluded(name string, src []byte) bool {
	if !matchOSArchSuffix(name) {
		return false
	}
	expr := buildConstraintOf(src)
	if expr == nil {
		return true
	}
	return expr.Eval(buildTagMatch)
}

// buildConstraintOf scans the line comments preceding the package clause
// for a //go:build constraint and parses it. Legacy // +build lines are
// ANDed in when no //go:build line is present.
func buildConstraintOf(src []byte) constraint.Expr {
	var plus constraint.Expr
	for _, line := range strings.Split(string(src), "\n") {
		t := strings.TrimSpace(line)
		if constraint.IsGoBuild(t) {
			if e, err := constraint.Parse(t); err == nil {
				return e
			}
		}
		if constraint.IsPlusBuild(t) {
			if e, err := constraint.Parse(t); err == nil {
				if plus == nil {
					plus = e
				} else {
					plus = &constraint.AndExpr{X: plus, Y: e}
				}
			}
		}
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		break // reached the package clause; constraints must precede it
	}
	return plus
}

// unixOS is the subset of GOOS values the "unix" build tag covers that this
// loader can plausibly run on.
var unixOS = map[string]bool{
	"linux": true, "darwin": true, "freebsd": true, "netbsd": true,
	"openbsd": true, "dragonfly": true, "solaris": true, "aix": true,
}

// buildTagMatch evaluates one build tag against the host platform.
func buildTagMatch(tag string) bool {
	switch {
	case tag == runtime.GOOS || tag == runtime.GOARCH:
		return true
	case tag == "unix":
		return unixOS[runtime.GOOS]
	case tag == "gc":
		return true
	case strings.HasPrefix(tag, "go1"):
		// Release tags: the toolchain running this loader satisfies every
		// go1.x constraint the module (go 1.22) states.
		return true
	}
	return false
}

var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

// matchOSArchSuffix implements the go tool's implicit filename constraints:
// *_GOOS.go, *_GOARCH.go, *_GOOS_GOARCH.go.
func matchOSArchSuffix(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	base = strings.TrimSuffix(base, "_test")
	parts := strings.Split(base, "_")
	if len(parts) < 2 {
		return true
	}
	last := parts[len(parts)-1]
	if knownArch[last] {
		if last != runtime.GOARCH {
			return false
		}
		if len(parts) >= 3 && knownOS[parts[len(parts)-2]] {
			return parts[len(parts)-2] == runtime.GOOS
		}
		return true
	}
	if knownOS[last] {
		return last == runtime.GOOS
	}
	return true
}
