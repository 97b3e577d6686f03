package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// relPath makes filename module-relative with forward slashes; paths
// outside root pass through unchanged.
func relPath(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}

// WriteText prints diagnostics in the classic file:line:col form.
func WriteText(w io.Writer, root string, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n",
			relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message); err != nil {
			return err
		}
	}
	return nil
}

// Minimal SARIF 2.1.0 document structure — enough for GitHub code scanning
// upload (github/codeql-action/upload-sarif) to annotate PRs inline.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF emits the findings as a SARIF 2.1.0 document. The rule table
// covers every analyzer passed in plus the reserved "typecheck" and
// "drlint" (directive hygiene) rules, so result ruleIds always resolve.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, diags []Diagnostic) error {
	driver := sarifDriver{
		Name:           "drlint",
		InformationURI: "https://github.com/paper-repro/drlint",
	}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	driver.Rules = append(driver.Rules,
		sarifRule{ID: "typecheck", ShortDescription: sarifMessage{Text: "the package must type-check with go/types"}},
		sarifRule{ID: "drlint", ShortDescription: sarifMessage{Text: "//drlint:ignore directives must be well-formed, justified, and not redundant"}},
	)
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		line, col := d.Pos.Line, d.Pos.Column
		if line < 1 {
			line = 1
		}
		if col < 1 {
			col = 1
		}
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relPath(root, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: line, StartColumn: col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
