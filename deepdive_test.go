package deepdive_test

import (
	"context"
	"strings"
	"testing"

	"deepdive"
)

const spouseSource = `
@relation Sentence(sid, words).
@relation PersonMention(mid, sid, eid).
@relation Married(e1, e2).
@variable HasSpouse(m1, m2).
@relation HasSpouse_Ev(m1, m2, label).

@semantics(ratio).

Cand: HasSpouse(m1, m2) :-
    PersonMention(m1, s, e1), PersonMention(m2, s, e2), m1 != m2.

FE: HasSpouse(m1, m2) :-
    PersonMention(m1, s, e1), PersonMention(m2, s, e2),
    Sentence(s, words), m1 != m2
    weight = phrase(m1, m2, words).

Sup: HasSpouse_Ev(m1, m2, true) :-
    HasSpouse(m1, m2), PersonMention(m1, s, e1), PersonMention(m2, s, e2),
    Married(e1, e2).
`

// phraseUDF buckets the text between the two mentions; mention ids encode
// token positions as m<idx>.
func phraseUDF(args []string) string {
	words := strings.Fields(args[2])
	if len(words) > 2 {
		return strings.Join(words[1:len(words)-1], "_")
	}
	return "short"
}

// spouseInit is the spouse KB (three sentences: two expressing marriage
// with "wife", one neutral) after its initial grounding.
func spouseInit(t *testing.T, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	kb := spouseKBRaw(t, opts...)
	t.Cleanup(func() { kb.Close() })
	must(t, kb.Init(ctx))
	return kb
}

// spouseMaterialized is spouseInit learned and materialized, ready for
// updates (no from-scratch inference: the first marginals come from the
// first update).
func spouseMaterialized(t *testing.T, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	kb := spouseInit(t, opts...)
	_, err := kb.Learn(ctx)
	must(t, err)
	_, err = kb.Materialize(ctx)
	must(t, err)
	return kb
}

var ctx = context.Background()

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineEndToEnd(t *testing.T) {
	eng := spouseInit(t)
	st := eng.Stats()
	if st.Variables != 6 { // 3 sentences × 2 ordered pairs
		t.Fatalf("vars = %d, want 6", st.Variables)
	}
	if st.Evidence != 1 { // (a,b) supervised via Married(Alan, Beth)
		t.Fatalf("evidence = %d, want 1", st.Evidence)
	}
	_, err := eng.Learn(ctx)
	must(t, err)
	_, err = eng.Infer(ctx)
	must(t, err)
	// Distant supervision on s1's "wife" phrase should transfer to s2.
	p, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"c", "d"})
	if !ok {
		t.Fatal("no marginal for (c,d)")
	}
	if p < 0.6 {
		t.Fatalf("P(HasSpouse(c,d)) = %v, want > 0.6 (learned from s1)", p)
	}
	pe, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"e", "f"})
	if !ok {
		t.Fatal("no marginal for (e,f)")
	}
	if pe >= p {
		t.Fatalf("neutral pair (e,f)=%v not less likely than wife pair (c,d)=%v", pe, p)
	}
	// Evidence fact reports probability 1.
	if pa, _ := eng.Marginal("HasSpouse", deepdive.Tuple{"a", "b"}); pa != 1 {
		t.Fatalf("evidence marginal = %v", pa)
	}
	// Extractions include the evidence fact.
	ex := eng.Extractions("HasSpouse", 0.5)
	foundEvidence := false
	for _, f := range ex {
		if f.Evidence && f.Tuple[0] == "a" {
			foundEvidence = true
		}
	}
	if !foundEvidence {
		t.Fatalf("extractions missing evidence fact: %+v", ex)
	}
}

func TestEngineIncrementalUpdate(t *testing.T) {
	eng := spouseMaterialized(t)
	// New document arrives incrementally.
	res, err := eng.Apply(ctx, deepdive.Update{
		Inserts: map[string][]deepdive.Tuple{
			"Sentence":      {{"s4", "Gus and his wife Hana"}},
			"PersonMention": {{"g", "s4", "Gus"}, {"h", "s4", "Hana"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVars == 0 {
		t.Fatal("new document created no variables")
	}
	p, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"g", "h"})
	if !ok {
		t.Fatal("no marginal for incremental pair")
	}
	if p < 0.5 {
		t.Fatalf("P(HasSpouse(g,h)) = %v, want > 0.5 from the wife feature", p)
	}
}

func TestEngineUpdateWithNewRule(t *testing.T) {
	eng := spouseMaterialized(t)
	res, err := eng.Apply(ctx, deepdive.Update{
		RuleSource: `Sym: HasSpouse(m2, m1) :- HasSpouse(m1, m2) weight = 1.5.`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewFactors == 0 {
		t.Fatal("symmetry rule added no factors")
	}
	// Symmetry should lift (b,a) via the evidence on (a,b).
	p, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"b", "a"})
	if !ok {
		t.Fatal("no marginal for (b,a)")
	}
	if p < 0.5 {
		t.Fatalf("P(HasSpouse(b,a)) = %v, want > 0.5 via symmetry", p)
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := deepdive.OpenKB("not a program"); err == nil {
		t.Fatal("bad program accepted")
	}
	eng := spouseInit(t)
	if err := eng.Load("Sentence", nil); err == nil {
		t.Fatal("Load after Init accepted")
	}
	if _, err := eng.Apply(ctx, deepdive.Update{}); err == nil {
		t.Fatal("Update before Materialize accepted")
	}
	if _, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"zz", "yy"}); ok {
		t.Fatal("marginal for unknown tuple")
	}
	if eng.Relation("Nope") != nil {
		t.Fatal("unknown relation returned tuples")
	}
	if got := eng.Relation("Married"); len(got) != 1 {
		t.Fatalf("Married relation = %v", got)
	}
	if got := eng.Candidates("HasSpouse"); len(got) != 6 {
		t.Fatalf("candidates = %d, want 6", len(got))
	}
	if err := eng.Init(ctx); err == nil {
		t.Fatal("second Init accepted")
	}
}

// TestLoadedEvidenceIsServed: an evidence relation loaded before Init
// supervises its facts, as the same tuples inserted by an update would.
// Loaded tuples reach the database at Init.
func TestLoadedEvidenceIsServed(t *testing.T) {
	kb, err := deepdive.OpenKB(`
@variable Q(x).
@relation Q_Ev(x, label).
@relation R(x).
Cand: Q(x) :- R(x).
F: Q(x) :- R(x) weight = 0.5.
`)
	must(t, err)
	defer kb.Close()
	must(t, kb.Load("R", []deepdive.Tuple{{"a"}, {"b"}}))
	must(t, kb.Load("Q_Ev", []deepdive.Tuple{{"a", "true"}}))
	if got := kb.Relation("Q_Ev"); len(got) != 0 {
		t.Fatalf("Q_Ev = %v before Init, want it empty", got)
	}
	must(t, kb.Init(ctx))
	if got := kb.Relation("Q_Ev"); len(got) != 1 {
		t.Fatalf("Q_Ev = %v after Init, want the loaded tuple", got)
	}
	facts := kb.Snapshot().Facts("Q")
	if len(facts) != 2 {
		t.Fatalf("facts of Q: %+v, want two", facts)
	}
	for _, f := range facts {
		if want := f.Tuple[0] == "a"; f.Evidence != want || (want && f.Probability != 1) {
			t.Fatalf("fact %v: evidence %v, probability %v; want evidence %v", f.Tuple, f.Evidence, f.Probability, want)
		}
	}
}

func TestOpenRejectsUnknownUDF(t *testing.T) {
	_, err := deepdive.OpenKB(`
@variable Q(x).
@relation R(x).
Q(x) :- R(x).
Q(x) :- R(x) weight = mystery(x).
`)
	if err == nil || !strings.Contains(err.Error(), "unknown UDF") {
		t.Fatalf("err = %v", err)
	}
}
