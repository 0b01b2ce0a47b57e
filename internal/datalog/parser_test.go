package datalog

import (
	"strings"
	"testing"

	"deepdive/internal/factor"
)

// spouseProgram is the paper's running example (Figure 2), in this
// package's syntax.
const spouseProgram = `
# User schema (Figure 2, panel 2).
@relation Sentence(sid, content).
@relation PersonCandidate(sid, mid).
@relation Mentions(sid, mid).
@relation EL(mid, eid).
@relation Married(eid1, eid2).
@variable MarriedCandidate(mid1, mid2).
@variable MarriedMentions(mid1, mid2).
@relation MarriedMentions_Ev(mid1, mid2, label).

@semantics(logical).

// R1: candidate generation.
R1: MarriedCandidate(m1, m2) :-
    PersonCandidate(s, m1), PersonCandidate(s, m2), m1 != m2.

// FE1: feature extraction with a UDF-tied weight.
FE1: MarriedMentions(m1, m2) :-
    MarriedCandidate(m1, m2), Mentions(s, m1), Mentions(s, m2),
    Sentence(s, sent)
    weight = phrase(m1, m2, sent).

// S1: distant supervision.
S1: MarriedMentions_Ev(m1, m2, true) :-
    MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
`

func TestParseSpouseProgram(t *testing.T) {
	p, err := Parse(spouseProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(p.Rules))
	}
	if p.DefaultSem != factor.Logical {
		t.Fatalf("default semantics %v, want logical", p.DefaultSem)
	}
	r1 := p.RuleByLabel("R1")
	if r1 == nil || r1.Kind != KindDerivation {
		t.Fatalf("R1 = %+v, want derivation", r1)
	}
	if len(r1.Body) != 3 || r1.Body[2].Cond == nil || r1.Body[2].Cond.Op != "!=" {
		t.Fatalf("R1 body = %v", r1.Body)
	}
	fe1 := p.RuleByLabel("FE1")
	if fe1 == nil || fe1.Kind != KindInference {
		t.Fatalf("FE1 kind = %v, want inference", fe1.Kind)
	}
	if fe1.Weight.Func != "phrase" || len(fe1.Weight.Args) != 3 {
		t.Fatalf("FE1 weight = %+v", fe1.Weight)
	}
	s1 := p.RuleByLabel("S1")
	if s1 == nil || s1.Kind != KindSupervision {
		t.Fatalf("S1 kind = %v, want supervision", s1.Kind)
	}
	if s1.Head.Args[2].IsVar || s1.Head.Args[2].Value != "true" {
		t.Fatalf("S1 head label arg = %+v, want constant true", s1.Head.Args[2])
	}
}

func TestParseFixedWeightAndSem(t *testing.T) {
	p, err := Parse(`
@variable Q(x).
@relation R(x).
Q(x) :- R(x) weight = -1.5 sem = ratio.
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if !r.Weight.IsFixed || r.Weight.Fixed != -1.5 {
		t.Fatalf("weight = %+v", r.Weight)
	}
	if !r.SemSet || r.Sem != factor.Ratio {
		t.Fatalf("sem = %v set=%v", r.Sem, r.SemSet)
	}
	if p.SemOf(r) != factor.Ratio {
		t.Fatal("SemOf should honor rule override")
	}
}

func TestParseTiedWeight(t *testing.T) {
	p, err := Parse(`
@variable Class(x).
@relation R(x, f).
Class(x) :- R(x, f) weight = w(f).
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if r.Weight.Func != "w" || len(r.Weight.Args) != 1 || r.Weight.Args[0] != "f" {
		t.Fatalf("tied weight = %+v", r.Weight)
	}
}

func TestParseNegation(t *testing.T) {
	p, err := Parse(`
@relation R(x).
@relation S(x).
@relation Out(x).
Out(x) :- R(x), !S(x).
`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Rules[0].Body[1].Neg {
		t.Fatal("negation not parsed")
	}
}

func TestParseFact(t *testing.T) {
	p, err := Parse(`
@relation R(x, y).
R("a", "b").
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if len(r.Body) != 0 || r.Head.Args[0].Value != "a" {
		t.Fatalf("fact = %v", r)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string // expected error substring
	}{
		{"undeclared head", `Q(x) :- Q(x).`, "undeclared head"},
		{"undeclared body", "@relation Q(x).\nQ(x) :- R(x).", "undeclared body"},
		{"head arity", "@relation Q(x, y).\n@relation R(x).\nQ(x) :- R(x).", "head Q has 1 args"},
		{"body arity", "@relation Q(x).\n@relation R(x).\nQ(x) :- R(x, x).", "body atom R has 2 args"},
		{"range restriction", "@relation Q(x).\n@relation R(y).\nQ(x) :- R(y).", "head variable x"},
		{"unsafe negation", "@relation Q(x).\n@relation R(x).\n@relation S(y).\nQ(x) :- R(x), !S(z).", "negated atom"},
		{"unsafe condition", "@relation Q(x).\n@relation R(x).\nQ(x) :- R(x), z != x.", "condition"},
		{"fact with vars", "@relation Q(x).\nQ(x).", "fact with variables"},
		{"weighted non-variable head", "@relation Q(x).\n@relation R(x).\nQ(x) :- R(x) weight = 1.", "must be declared @variable"},
		{"weighted supervision", "@variable Q(x).\n@relation Q_Ev(x, l).\n@relation R(x).\nQ_Ev(x, true) :- R(x) weight = 1.", "cannot carry a weight"},
		{"evidence without base", "@relation Foo_Ev(x, l).\n@relation R(x).\nFoo_Ev(x, true) :- R(x).", "no base variable relation"},
		{"evidence arity", "@variable Q(x).\n@relation Q_Ev(x, l, extra).\n@relation R(x).\nQ_Ev(x, true, true) :- R(x).", "must have arity 2"},
		{"unbound weight arg", "@variable Q(x).\n@relation R(x).\nQ(x) :- R(x) weight = w(zz).", "weight argument zz"},
		{"upper-case term", "@relation Q(x).\n@relation R(x).\nQ(x) :- R(Bad).", "starts upper-case"},
		{"duplicate decl", "@relation R(x).\n@relation R(y).", "duplicate declaration"},
		{"unknown decl", "@thing R(x).", "unknown declaration"},
		{"bad semantics", "@semantics(quadratic).", "unknown semantics"},
		{"unterminated string", "@relation R(x).\nR(\"oops).", "unterminated"},
		{"missing dot", "@relation R(x)", `expected "."`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: accepted bad program", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.frag)
		}
	}
}

// TestParseRules: rules parsed as an extension of a program are the rules
// the whole-program parse appends, and what that parse refuses — plus a
// reused label and a declaration — is refused, leaving the program alone.
func TestParseRules(t *testing.T) {
	prog := MustParse(spouseProgram)
	ext := `
FE2: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2), !Mentions(m1, m2) weight = -0.5 sem = ratio.
MarriedMentions(m2, m1) :- MarriedMentions(m1, m2) weight = 1.5.
S2: MarriedMentions_Ev(m1, m2, false) :- MarriedCandidate(m1, m2), EL(m1, e), EL(m2, e).
`
	got, err := ParseRules(prog, ext)
	if err != nil {
		t.Fatal(err)
	}
	full := MustParse(prog.String() + ext)
	want := full.Rules[len(prog.Rules):]
	if len(got) != 3 || len(want) != 3 || len(prog.Rules) != 3 {
		t.Fatalf("%d rules parsed, %d by the whole-program parse, program now holds %d", len(got), len(want), len(prog.Rules))
	}
	for i, r := range got {
		if r.String() != want[i].String() || r.Kind != want[i].Kind || prog.SemOf(r) != full.SemOf(want[i]) {
			t.Errorf("rule %d: got %v (%v), want %v (%v)", i, r, r.Kind, want[i], want[i].Kind)
		}
	}
	if rs, err := ParseRules(prog, " # nothing\n"); err != nil || len(rs) != 0 {
		t.Errorf("empty extension: %v, %v", rs, err)
	}
	refusals := []struct{ name, src, frag string }{
		{"undeclared relation", `X1: MarriedMentions(m1, m2) :- Nowhere(m1, m2) weight = 1.`, "undeclared body relation Nowhere"},
		{"undeclared head", `X1: Nowhere(m1, m2) :- MarriedCandidate(m1, m2).`, "undeclared head relation Nowhere"},
		{"arity mismatch", `X1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2, m3) weight = 1.`, "body atom MarriedCandidate has 3 args"},
		{"duplicate label", `FE1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = 1.`, "duplicate rule label FE1"},
		{"duplicate label within the update", "X1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = 1.\nX1: MarriedMentions(m2, m1) :- MarriedCandidate(m1, m2) weight = 1.", "duplicate rule label X1"},
		{"trailing garbage", `X1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = 1. and then`, "expected"},
		{"declaration", "@relation Extra(x).\nX1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = 1.", "cannot carry a declaration"},
		{"unterminated string", `X1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, "oops) weight = 1.`, "unterminated"},
	}
	for _, c := range refusals {
		_, err := ParseRules(prog, c.src)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.frag)
		}
		// The whole-program parse refuses the same extensions, except the two
		// it has no rule against.
		if _, perr := Parse(prog.String() + c.src); perr == nil && !strings.HasPrefix(c.name, "duplicate label") && c.name != "declaration" {
			t.Errorf("%s: refused by ParseRules, accepted by Parse", c.name)
		}
	}
	if len(prog.Rules) != 3 {
		t.Fatalf("refused extensions left %d rules in the program", len(prog.Rules))
	}
}

func TestEvidenceTarget(t *testing.T) {
	if base, ok := EvidenceTarget("Married_Ev"); !ok || base != "Married" {
		t.Fatalf("EvidenceTarget = %q, %v", base, ok)
	}
	if _, ok := EvidenceTarget("Married"); ok {
		t.Fatal("non-evidence name accepted")
	}
	if _, ok := EvidenceTarget("_Ev"); ok {
		t.Fatal("bare suffix accepted")
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	p := MustParse(spouseProgram)
	src2 := p.String()
	p2, err := Parse(src2)
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, src2)
	}
	if len(p2.Rules) != len(p.Rules) {
		t.Fatalf("round trip lost rules: %d vs %d", len(p2.Rules), len(p.Rules))
	}
	if p2.String() != src2 {
		t.Fatal("String() not a fixpoint")
	}
}

func TestRuleStringForms(t *testing.T) {
	p := MustParse(spouseProgram)
	s := p.RuleByLabel("FE1").String()
	for _, frag := range []string{"FE1:", "weight = phrase(m1, m2, sent)", ":-"} {
		if !strings.Contains(s, frag) {
			t.Errorf("FE1.String() = %q missing %q", s, frag)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	p, err := Parse("# leading\n//also\n@relation R(x).\nR(\"a\"). # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
}

func TestStringEscapes(t *testing.T) {
	p, err := Parse(`
@relation R(x).
R("line\nbreak\t\"q\"\\").
`)
	if err != nil {
		t.Fatal(err)
	}
	want := "line\nbreak\t\"q\"\\"
	if got := p.Rules[0].Head.Args[0].Value; got != want {
		t.Fatalf("escape = %q, want %q", got, want)
	}
}

func TestNumericConstants(t *testing.T) {
	p, err := Parse(`
@relation R(x).
R(42).
R(-3.5).
R(1e-2).
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules[0].Head.Args[0].Value != "42" ||
		p.Rules[1].Head.Args[0].Value != "-3.5" ||
		p.Rules[2].Head.Args[0].Value != "1e-2" {
		t.Fatalf("numeric constants parsed wrong: %v %v %v",
			p.Rules[0].Head.Args[0], p.Rules[1].Head.Args[0], p.Rules[2].Head.Args[0])
	}
}

func TestRuleKindString(t *testing.T) {
	if KindDerivation.String() != "derivation" ||
		KindSupervision.String() != "supervision" ||
		KindInference.String() != "inference" {
		t.Fatal("RuleKind strings wrong")
	}
	if RuleKind(9).String() != "RuleKind(9)" {
		t.Fatal("unknown RuleKind string wrong")
	}
}
