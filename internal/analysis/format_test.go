package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenDiags is a fixed finding set exercising every output path: multiple
// rules, multiple files, and a position with column 0 (SARIF clamps to 1).
func goldenDiags() []Diagnostic {
	return []Diagnostic{
		{Pos: token.Position{Filename: "benchmark/dense.go", Line: 92, Column: 35}, Rule: "seedprov", Message: "seed derives from time.UnixNano, not a config field, flag, or fixed literal; thread the seed through configuration so runs are reproducible"},
		{Pos: token.Position{Filename: "internal/serve/engine.go", Line: 42, Column: 7}, Rule: "lockhold", Message: "time.Sleep while holding mu; release the lock before blocking"},
		{Pos: token.Position{Filename: "internal/serve/stats.go", Line: 9, Column: 0}, Rule: "snapcapture", Message: "second Load of atomic snapshot e.snap in this scope is a TOCTOU race; Load once into a local and reuse it"},
	}
}

// checkGolden compares got against the committed golden file. Regenerate
// goldens by deleting them and re-running the test.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote golden %s", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden %s:\ngot:\n%s\nwant:\n%s", name, path, got, want)
	}
}

func TestWriteSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "", All(), goldenDiags()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "findings.sarif", buf.Bytes())
}

// formatKey is the cross-format identity of one finding.
type formatKey struct {
	File    string
	Line    int
	Rule    string
	Message string
}

// TestFormatsAgree parses the text and SARIF outputs back and checks they
// describe the identical finding set, in the same order.
func TestFormatsAgree(t *testing.T) {
	diags := goldenDiags()

	var textBuf, sarifBuf bytes.Buffer
	if err := WriteText(&textBuf, "", diags); err != nil {
		t.Fatal(err)
	}
	if err := WriteSARIF(&sarifBuf, "", All(), diags); err != nil {
		t.Fatal(err)
	}

	var fromText []formatKey
	textLine := regexp.MustCompile(`^(.+):(\d+):\d+: \[(\w+)\] (.+)$`)
	for _, line := range strings.Split(strings.TrimSuffix(textBuf.String(), "\n"), "\n") {
		m := textLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("text line does not parse: %q", line)
		}
		n, _ := strconv.Atoi(m[2])
		fromText = append(fromText, formatKey{m[1], n, m[3], m[4]})
	}
	if len(fromText) != len(diags) {
		t.Fatalf("text has %d findings, want %d", len(fromText), len(diags))
	}

	var sarif struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarifBuf.Bytes(), &sarif); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if sarif.Version != "2.1.0" || len(sarif.Runs) != 1 {
		t.Fatalf("SARIF envelope: version %q, %d runs", sarif.Version, len(sarif.Runs))
	}
	run := sarif.Runs[0]
	if run.Tool.Driver.Name != "drlint" {
		t.Fatalf("SARIF driver name %q", run.Tool.Driver.Name)
	}

	// Every result ruleId must resolve in the driver's rule table.
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Errorf("SARIF result ruleId %q not in the driver rule table", r.RuleID)
		}
	}

	var fromSARIF []formatKey
	for _, r := range run.Results {
		if len(r.Locations) != 1 {
			t.Fatalf("SARIF result has %d locations", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		fromSARIF = append(fromSARIF, formatKey{loc.ArtifactLocation.URI, loc.Region.StartLine, r.RuleID, r.Message.Text})
	}
	if len(fromText) != len(fromSARIF) {
		t.Fatalf("text has %d findings, SARIF has %d", len(fromText), len(fromSARIF))
	}
	for i := range fromText {
		if fromText[i] != fromSARIF[i] {
			t.Errorf("finding %d diverges across formats:\n text: %+v\nsarif: %+v", i, fromText[i], fromSARIF[i])
		}
	}
}

func TestWriteTextForm(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, "", goldenDiags()[:1]); err != nil {
		t.Fatal(err)
	}
	want := "benchmark/dense.go:92:35: [seedprov] seed derives from time.UnixNano, not a config field, flag, or fixed literal; thread the seed through configuration so runs are reproducible\n"
	if buf.String() != want {
		t.Fatalf("text form:\ngot  %q\nwant %q", buf.String(), want)
	}
}

func TestRelPath(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("work", "repo")
	if got := relPath(root, filepath.Join(root, "internal", "serve", "engine.go")); got != "internal/serve/engine.go" {
		t.Fatalf("relPath inside root = %q", got)
	}
	if got := relPath(root, filepath.Join(string(filepath.Separator)+"elsewhere", "x.go")); got != "/elsewhere/x.go" {
		t.Fatalf("relPath outside root = %q", got)
	}
	if got := relPath("", "a/b.go"); got != "a/b.go" {
		t.Fatalf("relPath with empty root = %q", got)
	}
}
