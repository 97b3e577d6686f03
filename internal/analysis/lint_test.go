package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLintModule is the self-enforcing pass: every drlint analyzer runs
// over the whole module inside `go test ./...`, exactly like CI, so a change
// that violates a numeric/concurrency/reproducibility invariant fails tier-1
// CI even if nobody ran the CLI. Keep this green by fixing the finding or
// adding a justified //drlint:ignore directive at the site.
func TestLintModule(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, All())
	if err != nil {
		t.Fatalf("drlint failed to load the module: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the findings above or suppress with `//drlint:ignore <rule> <reason>`; see README \"Static analysis\"")
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
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
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
