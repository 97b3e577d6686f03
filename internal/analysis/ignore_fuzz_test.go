package analysis

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzIgnoreDirective drives the //drlint:ignore grammar with arbitrary
// comment text. The directive parser is the one component of the linter
// that processes attacker-ish input (any comment in any analyzed file) and
// whose misreads are security-relevant in miniature: a comment that parses
// as a directive it shouldn't be silences a rule, and a directive that
// fails to parse reports a confusing finding. The invariants pinned here:
//
//   - the parser never panics, whatever the bytes;
//   - a well-formed parse yields at least one rule, no empty rule
//     element, no whitespace or comma inside a rule, and a non-blank
//     reason;
//   - canonical re-rendering of a well-formed parse reparses to the
//     identical rules and reason (round-trip stability);
//   - text whose token merely extends the prefix ("drlint:ignores ...")
//     is NOT a directive, so prose can never suppress a finding.
func FuzzIgnoreDirective(f *testing.F) {
	seeds := []string{
		"//drlint:ignore floatcmp tolerance set by the paper's table 2",
		"//drlint:ignore escapegate,unsafelife two rules one reason",
		"//drlint:ignore",
		"// drlint:ignore   ",
		"//drlint:ignore floatcmp",
		"//drlint:ignorefoo bar baz",
		"//drlint:ignores the obvious",
		"//drlint:ignore a,,b double comma",
		"//drlint:ignore ,lead comma reason",
		"//drlint:ignore trail, comma reason",
		"//drlint:ignore rule\treason after tab",
		"//drlint:ignore rule\r\ncrlf tail",
		"//drlint:ignore règle süß unicode ✓ reason",
		"//drlint:ignore nbsp separated",
		"/*drlint:ignore block comment*/",
		"//   drlint:ignore spaced rule ok",
		"//drlint:ignore r \x00 nul reason",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		rules, reason, res := parseIgnoreComment(text)
		switch res {
		case notIgnore, malformedIgnore:
			if rules != nil || reason != "" {
				t.Fatalf("non-well-formed parse leaked data: rules=%q reason=%q", rules, reason)
			}
		case wellFormedIgnore:
			if len(rules) == 0 {
				t.Fatalf("well-formed directive with no rules: %q", text)
			}
			for _, r := range rules {
				if r == "" {
					t.Fatalf("empty rule element from %q", text)
				}
				if strings.ContainsRune(r, ',') {
					t.Fatalf("comma inside rule %q from %q", r, text)
				}
				for _, c := range r {
					if unicode.IsSpace(c) {
						t.Fatalf("whitespace inside rule %q from %q", r, text)
					}
				}
			}
			if strings.TrimSpace(reason) == "" {
				t.Fatalf("blank reason from %q", text)
			}
			canonical := "//drlint:ignore " + strings.Join(rules, ",") + " " + reason
			r2, why2, res2 := parseIgnoreComment(canonical)
			if res2 != wellFormedIgnore {
				t.Fatalf("canonical form %q did not reparse as well-formed", canonical)
			}
			if strings.Join(r2, "\x00") != strings.Join(rules, "\x00") || why2 != reason {
				t.Fatalf("round-trip drift: %q -> rules=%q reason=%q, reparsed rules=%q reason=%q",
					text, rules, reason, r2, why2)
			}
		default:
			t.Fatalf("unknown parse result %d", res)
		}
	})
}

// TestIgnorePrefixIsExactWord pins the fix for the prefix-match bug: a
// token that merely extends "drlint:ignore" used to parse as a directive
// with the first rule silently misread.
func TestIgnorePrefixIsExactWord(t *testing.T) {
	for _, text := range []string{
		"//drlint:ignorefoo bar reason",
		"//drlint:ignores everything here",
		"//drlint:ignore-this too",
	} {
		if _, _, res := parseIgnoreComment(text); res != notIgnore {
			t.Errorf("%q parsed as directive (res=%d), want notIgnore", text, res)
		}
	}
	for _, text := range []string{
		"//drlint:ignore a,,b reason",
		"//drlint:ignore ,a reason",
		"//drlint:ignore onlyrules",
		"//drlint:ignore",
	} {
		if _, _, res := parseIgnoreComment(text); res != malformedIgnore {
			t.Errorf("%q parsed as res=%d, want malformedIgnore", text, res)
		}
	}
	rules, reason, res := parseIgnoreComment("//drlint:ignore a,b  why  not")
	if res != wellFormedIgnore || strings.Join(rules, ",") != "a,b" || reason != "why not" {
		t.Errorf("got rules=%q reason=%q res=%d", rules, reason, res)
	}
}
