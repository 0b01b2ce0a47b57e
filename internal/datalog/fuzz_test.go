package datalog

import (
	"testing"
)

// FuzzDatalogParser drives Parse and ParseRules with arbitrary program
// text. The parser must never panic, and any program it accepts must
// round-trip: the String rendering of the parsed program must parse again
// to the same number of declarations and rules (a checkpoint stores a KB's
// program as its rendering). A rule update ParseRules accepts must be one
// the whole-program parse accepts.
//
// Run the smoke pass with `make fuzz-smoke`; a short pass also runs in CI.
func FuzzDatalogParser(f *testing.F) {
	seeds := []string{
		spouseProgram,
		"@variable Q(x).\n@relation R(x).\nQ(x) :- R(x) weight = -1.5 sem = ratio.",
		"@variable Q(x).\n@relation R(x, f).\nQ(x) :- R(x, f) weight = w(f).",
		"@relation R(x).\n@relation S(x).\n@relation Out(x).\nOut(x) :- R(x), !S(x).",
		"@semantics(logical).\n@relation R(a, b).\n",
		"R1: Head(x) :- Body(x), x != y.",
		"@variable V(a).\n@relation V_Ev(a, label).\nS: V_Ev(a, true) :- V(a).",
		"# comment\n// comment\n@relation R(x). R(x) :-",
		"@relation R(\"quoted\", x).",
		"weight = 1.5 sem = linear.",
		"@variable Q(x).\nQ(true) :- .",
		"∆∆∆ @relation ümlaut(x).",
		"FE2: MarriedMentions(m2, m1) :- MarriedMentions(m1, m2) weight = 1.5.",
		"FE1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = 1.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	base := MustParse(spouseProgram)
	baseRules := len(base.Rules)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		// The same text as a rule update on a fixed program: never a panic,
		// and whatever is accepted leaves the program as it was and parses
		// as part of the whole program too.
		if rules, err := ParseRules(base, src); err == nil {
			if len(base.Rules) != baseRules {
				t.Fatalf("ParseRules changed the program: %d rules, had %d\nsource: %q", len(base.Rules), baseRules, src)
			}
			full, err := Parse(base.String() + src)
			if err != nil || len(full.Rules) != baseRules+len(rules) {
				t.Fatalf("ParseRules accepted %d rules the whole-program parse does not: %v\nsource: %q", len(rules), err, src)
			}
		}
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := prog.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted program failed to re-parse its String rendering:\nsource: %q\nrendered: %q\nerror: %v",
				src, rendered, err)
		}
		if len(again.Rules) != len(prog.Rules) || len(again.Decls) != len(prog.Decls) {
			t.Fatalf("round-trip changed shape: %d/%d rules, %d/%d decls\nsource: %q\nrendered: %q",
				len(prog.Rules), len(again.Rules), len(prog.Decls), len(again.Decls), src, rendered)
		}
	})
}
