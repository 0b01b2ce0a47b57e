package ground

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/persist"
)

// requireCounters checks the O(1) running counters against a recount.
func requireCounters(t *testing.T, g *Grounder) {
	t.Helper()
	n := 0
	for _, gs := range g.groups {
		for i := gs.first; i >= 0; i = g.gnds[i].next {
			if g.gnds[i].count > 0 {
				n++
			}
		}
	}
	if g.NumGroundings() != n {
		t.Fatalf("NumGroundings = %d, recount %d", g.NumGroundings(), n)
	}
	total := 0
	for _, name := range g.data.Names() {
		rel := g.data.Relation(name)
		live := len(rel.Tuples())
		if rel.Len() != live {
			t.Fatalf("%s.Len() = %d, recount %d", name, rel.Len(), live)
		}
		total += live
	}
	if g.data.TotalTuples() != total {
		t.Fatalf("TotalTuples = %d, recount %d", g.data.TotalTuples(), total)
	}
}

const negFirstSrc = `
@relation A(x).
@relation B(x).
@relation H(x).
`

// TestNegatedAtomBeforeItsBinder: `H(x) :- !B(x), A(x).` passes
// datalog.Validate (x is bound by a positive atom) and must ground the
// same as with the atoms the other way round — the planner schedules the
// anti-join once x is bound — as a program rule and as a rule update,
// through full evaluation, delta evaluation and the negation fallback.
func TestNegatedAtomBeforeItsBinder(t *testing.T) {
	for _, body := range []string{"!B(x), A(x)", "A(x), !B(x)"} {
		rule := "H(x) :- " + body + "."
		heads := func(g *Grounder) []string {
			var out []string
			for _, tu := range g.DB().Relation("H").Tuples() {
				out = append(out, tu[0])
			}
			slices.Sort(out)
			return out
		}
		load := func(g *Grounder) {
			bmust(t, g.LoadBase("A", []db.Tuple{{"1"}, {"2"}, {"3"}}))
			bmust(t, g.LoadBase("B", []db.Tuple{{"2"}}))
			bmust(t, g.Ground())
		}
		// In the program from the start.
		g, err := New(datalog.MustParse(negFirstSrc+rule), nil)
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		load(g)
		if got := heads(g); !slices.Equal(got, []string{"1", "3"}) {
			t.Fatalf("%s: H = %v, want [1 3]", rule, got)
		}
		// Arriving as a rule update, then driven by deltas on both atoms.
		g, err = New(datalog.MustParse(negFirstSrc), nil)
		bmust(t, err)
		load(g)
		newRules := datalog.MustParse(negFirstSrc + rule).Rules
		if _, err := g.ApplyUpdate(Update{NewRules: newRules}); err != nil {
			t.Fatalf("%s as a rule update: %v", rule, err)
		}
		if got := heads(g); !slices.Equal(got, []string{"1", "3"}) {
			t.Fatalf("%s as a rule update: H = %v, want [1 3]", rule, got)
		}
		_, err = g.ApplyUpdate(Update{
			Inserts: map[string][]db.Tuple{"A": {{"4"}}, "B": {{"3"}}},
			Deletes: map[string][]db.Tuple{"B": {{"2"}}},
		})
		bmust(t, err)
		if got := heads(g); !slices.Equal(got, []string{"1", "2", "4"}) {
			t.Fatalf("%s after deltas: H = %v, want [1 2 4]", rule, got)
		}
		requireCounters(t, g)
	}
}

// TestRejectedUpdateLeavesGrounderUntouched: an update that cannot be
// applied — a rule the planner cannot schedule, an unknown UDF, a
// recursive rule set, a bad base delta — is refused before any mutation:
// the program's rules, every relation, the symbol table (a refused rule's
// constants included), the version and the cached graph are as they were,
// and the grounder keeps working.
func TestRejectedUpdateLeavesGrounderUntouched(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())
	graph := g.Graph()
	state := func() string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "v%d rules=%d vars=%d groups=%d gnds=%d weighted=%d topo=%v symbols=%d\n",
			g.Version(), len(g.Program().Rules), g.NumVars(), g.NumGroups(), g.NumGroundings(), len(g.weighted), g.topo, g.DB().Symbols().Len())
		for _, name := range g.DB().Names() {
			fmt.Fprintf(&sb, "%s derived=%v rules=%d %v\n", name, g.derived[name], len(g.rulesByHead[name]), g.DB().Relation(name).Tuples())
		}
		return sb.String()
	}
	before := state()
	okRule := "I9: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = 0.5."
	doc := map[string][]db.Tuple{
		"Sentence":        {{"s9", "Pat and Sam wed"}},
		"PersonCandidate": {{"s9", "m8"}, {"s9", "m9"}},
		"Mentions":        {{"s9", "m8"}, {"s9", "m9"}},
	}
	// unplannable is not reachable through the parser (Validate refuses
	// it first); it stands for whatever else the planner may reject.
	unplannable := datalog.MustParse(spouseSrc + "X: Married(e1, e2) :- EL(m, e1), EL(m, e2).").Rules[4:]
	unplannable[0].Body = append(unplannable[0].Body, datalog.BodyItem{
		Cond: &datalog.Cond{Op: "~", L: datalog.Term{IsVar: true, Name: "e1"}, R: datalog.Term{IsVar: true, Name: "e2"}}})
	for name, u := range map[string]Update{
		"unplannable rule after a good one": {Inserts: doc, NewRules: append(datalog.MustParse(spouseSrc + okRule).Rules[4:], unplannable...)},
		"unknown UDF":                       {Inserts: doc, NewRules: datalog.MustParse(spouseSrc + okRule + "\nF: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = mystery(m1).").Rules[4:]},
		"recursion":                         {Inserts: doc, NewRules: datalog.MustParse(spouseSrc + "X: PersonCandidate(s, m) :- MarriedCandidate(m, m2), Mentions(s, m).").Rules[4:]},
		"recursion through a new constant":  {Inserts: doc, NewRules: datalog.MustParse(spouseSrc + `X: PersonCandidate(s, "m-new") :- MarriedCandidate(m, "m-other"), Mentions(s, m).`).Rules[4:]},
		"validation":                        {Inserts: doc, NewRules: []*datalog.Rule{{Head: datalog.Atom{Pred: "Nope"}}}},
		"insert into derived relation":      {Inserts: map[string][]db.Tuple{"EL": {{"m8", "Pat"}}, "MarriedCandidate": {{"mX", "mY"}}}},
		"unknown relation":                  {Inserts: doc, Deletes: map[string][]db.Tuple{"Nope": {{"x"}}}},
	} {
		if _, err := g.ApplyUpdate(u); err == nil {
			t.Fatalf("%s: update accepted", name)
		}
		if after := state(); after != before {
			t.Fatalf("%s: rejected update left a trace:\nbefore %s\nafter  %s", name, before, after)
		}
		if g.Graph() != graph {
			t.Fatalf("%s: rejected update invalidated the cached graph", name)
		}
	}
	// The grounder is still usable and still equivalent to a fresh one.
	if _, err := g.ApplyUpdate(Update{Inserts: doc, NewRules: datalog.MustParse(spouseSrc + okRule).Rules[4:]}); err != nil {
		t.Fatal(err)
	}
	base := spouseBase()
	for rel, ts := range doc {
		base[rel] = append(base[rel], ts...)
	}
	full, err := New(datalog.MustParse(spouseSrc+okRule), testUDFs())
	bmust(t, err)
	for rel, ts := range base {
		bmust(t, full.LoadBase(rel, ts))
	}
	bmust(t, full.Ground())
	requireEquivalent(t, g, full, 77)
}

func bmust(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// corpusBase is a spouse-program base of n sentences with k person
// mentions each; every fifth sentence's first pair is a known marriage.
func corpusBase(n, k int) baseData {
	base := baseData{}
	for s := 0; s < n; s++ {
		sid := fmt.Sprintf("s%d", s)
		base["Sentence"] = append(base["Sentence"], db.Tuple{sid, strings.Repeat("word ", 3+s%7)})
		for m := 0; m < k; m++ {
			mid := fmt.Sprintf("s%dm%d", s, m)
			base["PersonCandidate"] = append(base["PersonCandidate"], db.Tuple{sid, mid})
			base["Mentions"] = append(base["Mentions"], db.Tuple{sid, mid})
			base["EL"] = append(base["EL"], db.Tuple{mid, "E" + mid})
		}
		if s%5 == 0 {
			base["Married"] = append(base["Married"], db.Tuple{fmt.Sprintf("Es%dm0", s), fmt.Sprintf("Es%dm1", s)})
		}
	}
	return base
}

// maxAllocsPerBinding is the bound TestGroundAllocationsPerBinding holds
// full-rule evaluation to (0.3 measured). A weighted-rule binding costs
// what its UDF allocates — its keys are built in a reused arena, its
// variable, group and grounding records are slab entries — and a
// derivation-rule binding costs nothing but the amortised growth of the
// slabs its row and variable land in. Join evaluation itself — probes, key
// building, register loads — costs none.
const maxAllocsPerBinding = 6

func TestGroundAllocationsPerBinding(t *testing.T) {
	const k = 4
	// Every rule of the spouse program binds once per ordered mention pair
	// (S1 once per known marriage on top): the marginal cost of a larger
	// corpus is all per-binding work.
	bindings := func(n int) float64 { return float64(3*k*(k-1)*n + (n+4)/5) }
	allocs := func(n int) float64 {
		a, _ := groundingAllocs(t, corpusBase(n, k))
		return a
	}
	small, large := 50, 250
	per := (allocs(large) - allocs(small)) / (bindings(large) - bindings(small))
	t.Logf("%.1f allocations per binding", per)
	if per > maxAllocsPerBinding {
		t.Fatalf("full-rule evaluation allocates %.1f times per binding, want ≤ %d", per, maxAllocsPerBinding)
	}
}

// BenchmarkGroundFullRule is full-rule evaluation: every rule of the
// spouse program over a 500-sentence corpus, from scratch — what a rule
// update, a from-scratch rerun and the KB's set-up spend their grounding
// time on.
func BenchmarkGroundFullRule(b *testing.B) {
	base := corpusBase(500, 4)
	b.ReportAllocs()
	var g *Grounder
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		g = loadGrounder(b, spouseSrc, base, testUDFs())
		b.StartTimer()
		bmust(b, g.Ground())
	}
	b.ReportMetric(float64(g.NumGroundings()), "groundings")
}

// BenchmarkGroundDocDelta is delta evaluation: one two-mention document
// inserted into, then deleted from, the same corpus — a stream_docs
// update, whose cost must follow the delta and not the corpus. Graph
// patching is on, as in the served KB: each update splices its delta into
// the flat graph through a factor.Patch, and the loop reads the graph back
// as the KB does after every commit, which compacts it whenever
// fragmentation crosses the threshold — the figures hold that rebuild,
// amortised.
func BenchmarkGroundDocDelta(b *testing.B) {
	for _, sentences := range []int{500, 2000} {
		b.Run(fmt.Sprintf("corpus=%d", sentences), func(b *testing.B) {
			g := newSpouseGrounder(b, corpusBase(sentences, 4))
			g.Graph()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ins := wideDocUpdate(n, 2)
				if _, err := g.ApplyUpdate(ins); err != nil {
					b.Fatal(err)
				}
				g.Graph()
				if _, err := g.ApplyUpdate(Update{Deletes: ins.Inserts}); err != nil {
					b.Fatal(err)
				}
				g.Graph()
			}
		})
	}
}

// BenchmarkGroundRestore is the decode side of the grounder snapshot: the
// image of a grounded spouse corpus of 500 and 2 000 sentences read back by
// Restore — the symbol table, the relations with their row tables, the
// variable, weight, group and grounding slabs, and the lookup tables
// rebuilt over them — what a recovery spends decoding the grounder. (The
// factor graph is not in the image: recovery's first Graph call builds it
// from the restored tables.)
func BenchmarkGroundRestore(b *testing.B) {
	prog := datalog.MustParse(spouseSrc)
	for _, sentences := range []int{500, 2000} {
		b.Run(fmt.Sprintf("corpus=%d", sentences), func(b *testing.B) {
			var img persist.Buf
			newSpouseGrounder(b, corpusBase(sentences, 4)).AppendSnapshot(&img)
			b.SetBytes(int64(img.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := Restore(prog, testUDFs(), persist.NewRd(img.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
