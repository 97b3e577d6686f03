package analysis

import "strings"

// ignorePrefix starts a suppression directive comment. The full form is
//
//	//drlint:ignore rule1[,rule2...] reason text
//
// placed either at the end of the offending line or on the line directly
// above it. The reason is required: a suppression without a recorded
// justification is itself a finding.
const ignorePrefix = "drlint:ignore"

// directive is one parsed //drlint:ignore comment.
type directive struct {
	rules  []string
	reason string
	line   int
}

// ignoreParse classifies one comment's relation to the directive grammar.
type ignoreParse int

const (
	// notIgnore: the comment is not an ignore directive at all. This
	// includes tokens that merely share the prefix ("drlint:ignores",
	// "drlint:ignorefoo") — a directive is the exact word or nothing, so
	// prose mentioning the syntax can never silence a rule.
	notIgnore ignoreParse = iota
	// malformedIgnore: starts as a directive but violates the grammar
	// (no rule list, an empty rule element, or no reason).
	malformedIgnore
	// wellFormedIgnore: rules and reason both parsed.
	wellFormedIgnore
)

// parseIgnoreComment classifies raw comment text (leading "//" optional)
// against the grammar //drlint:ignore rule[,rule...] reason. It is a pure
// function of the text — no token positions, no package state — so the
// fuzzer drives it directly with arbitrary bytes.
func parseIgnoreComment(text string) (rules []string, reason string, res ignoreParse) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, ignorePrefix) {
		return nil, "", notIgnore
	}
	rest := text[len(ignorePrefix):]
	if rest != "" {
		if r := rest[0]; r != ' ' && r != '\t' {
			return nil, "", notIgnore
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, "", malformedIgnore
	}
	rules = strings.Split(fields[0], ",")
	for _, r := range rules {
		if r == "" {
			return nil, "", malformedIgnore
		}
	}
	return rules, strings.Join(fields[1:], " "), wellFormedIgnore
}

func (d directive) covers(rule string) bool {
	for _, r := range d.rules {
		if r == rule {
			return true
		}
	}
	return false
}

// parseDirectives extracts every drlint:ignore directive in f, reporting
// malformed ones (no rule list or no reason) as findings in their own right
// so a bare, unjustified ignore cannot silently disable a rule.
func parseDirectives(pkg *Package, f File, report func(Diagnostic)) []directive {
	var out []directive
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			rules, reason, res := parseIgnoreComment(c.Text)
			if res == notIgnore {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			if res == malformedIgnore {
				report(Diagnostic{
					Pos:     pos,
					Rule:    "drlint",
					Message: "malformed //drlint:ignore directive: want `//drlint:ignore <rule>[,<rule>] <reason>` with a non-empty reason",
				})
				continue
			}
			out = append(out, directive{
				rules:  rules,
				reason: reason,
				line:   pos.Line,
			})
		}
	}
	return out
}

// filterIgnored removes diagnostics suppressed by a directive on the same
// line or the line above, and appends diagnostics for malformed directives.
func filterIgnored(pkg *Package, diags []Diagnostic) []Diagnostic {
	// fileDirectives: filename -> directives in that file.
	fileDirectives := map[string][]directive{}
	var extra []Diagnostic
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.AST.Pos()).Filename
		fileDirectives[name] = parseDirectives(pkg, f, func(d Diagnostic) { extra = append(extra, d) })
	}
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range fileDirectives[d.Pos.Filename] {
			if dir.covers(d.Rule) && (dir.line == d.Pos.Line || dir.line == d.Pos.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return append(out, extra...)
}
