package ground

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/persist"
)

// spouseSrc is the paper's running example (Figure 2).
const spouseSrc = `
@relation Sentence(sid, content).
@relation PersonCandidate(sid, mid).
@relation Mentions(sid, mid).
@relation EL(mid, eid).
@relation Married(eid1, eid2).
@variable MarriedCandidate(mid1, mid2).
@variable MarriedMentions(mid1, mid2).
@relation MarriedMentions_Ev(mid1, mid2, label).

R1: MarriedCandidate(m1, m2) :-
    PersonCandidate(s, m1), PersonCandidate(s, m2), m1 != m2.

R2: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2).

FE1: MarriedMentions(m1, m2) :-
    MarriedCandidate(m1, m2), Mentions(s, m1), Mentions(s, m2),
    Sentence(s, sent)
    weight = phrase(m1, m2, sent).

S1: MarriedMentions_Ev(m1, m2, true) :-
    MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
`

func phraseUDF(args []string) string {
	// A stand-in for the paper's phrase(): bucket by sentence word count.
	return fmt.Sprint(len(strings.Fields(args[2])))
}

func testUDFs() UDFRegistry { return UDFRegistry{"phrase": phraseUDF} }

type baseData map[string][]db.Tuple

func spouseBase() baseData {
	return baseData{
		"Sentence": {
			{"s1", "B. Obama and Michelle were married Oct. 3, 1992"},
			{"s2", "Malia and Sasha attended the state dinner"},
		},
		"PersonCandidate": {
			{"s1", "m1"}, {"s1", "m2"},
			{"s2", "m3"}, {"s2", "m4"},
		},
		"Mentions": {
			{"s1", "m1"}, {"s1", "m2"},
			{"s2", "m3"}, {"s2", "m4"},
		},
		"EL": {
			{"m1", "Barack"}, {"m2", "Michelle"},
			{"m3", "Malia"}, {"m4", "Sasha"},
		},
		"Married": {
			{"Barack", "Michelle"},
		},
	}
}

func newSpouseGrounder(t testing.TB, base baseData) *Grounder {
	t.Helper()
	g := loadGrounder(t, spouseSrc, base, testUDFs())
	if err := g.Ground(); err != nil {
		t.Fatal(err)
	}
	return g
}

// wideDocUpdate inserts document i of the spouse program: one sentence
// mentioning m people, so candidate generation joins m·(m−1) ordered pairs
// plus the feature and supervision rules.
func wideDocUpdate(i, m int) Update {
	sid := fmt.Sprintf("bx%d", i)
	u := Update{Inserts: map[string][]db.Tuple{
		"Sentence": {{sid, "a sentence mentioning very many people at once"}},
	}}
	for k := 0; k < m; k++ {
		mid := fmt.Sprintf("q%dm%d", i, k)
		u.Inserts["PersonCandidate"] = append(u.Inserts["PersonCandidate"], db.Tuple{sid, mid})
		u.Inserts["Mentions"] = append(u.Inserts["Mentions"], db.Tuple{sid, mid})
		u.Inserts["EL"] = append(u.Inserts["EL"], db.Tuple{mid, "E" + mid})
	}
	return u
}

// loadGrounder is a grounder of src with base loaded, not grounded.
func loadGrounder(t testing.TB, src string, base baseData, udfs UDFRegistry) *Grounder {
	t.Helper()
	g, err := New(datalog.MustParse(src), udfs)
	if err != nil {
		t.Fatal(err)
	}
	for rel, tuples := range base {
		if err := g.LoadBase(rel, tuples); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGroundSpouseProgram(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())

	// R1 derives ordered pairs within each sentence: 2 + 2 = 4 candidates.
	mc := g.DB().Relation("MarriedCandidate")
	if mc.Len() != 4 {
		t.Fatalf("MarriedCandidate has %d tuples, want 4: %v", mc.Len(), mc.Tuples())
	}
	// FE1 derives MarriedMentions for each candidate (same sentence joins).
	mm := g.DB().Relation("MarriedMentions")
	if mm.Len() != 4 {
		t.Fatalf("MarriedMentions has %d tuples, want 4", mm.Len())
	}
	// S1 labels (m1,m2) as true evidence via the Married KB (the KB fact is
	// directional: only Married(Barack, Michelle) exists).
	ev := g.DB().Relation("MarriedMentions_Ev")
	if ev.Len() != 1 {
		t.Fatalf("MarriedMentions_Ev has %d tuples, want 1: %v", ev.Len(), ev.Tuples())
	}

	graph := g.Graph()
	// Variables: 4 MarriedCandidate + 4 MarriedMentions.
	if graph.NumVars() != 8 {
		t.Fatalf("graph has %d vars, want 8", graph.NumVars())
	}
	// One group per (FE1, head, weight): 4 heads.
	if graph.NumGroups() != 4 {
		t.Fatalf("graph has %d groups, want 4", graph.NumGroups())
	}
	// Evidence set on the two supervised MarriedMentions vars.
	v, ok := g.VarOf("MarriedMentions", db.Tuple{"m1", "m2"})
	if !ok || !graph.IsEvidence(v) || !graph.EvidenceValue(v) {
		t.Fatalf("evidence missing on (m1,m2): ok=%v", ok)
	}
	// Weight tying: both sentences have different word counts, so the UDF
	// produces (at most) 2 distinct weights here.
	if graph.NumWeights() != 2 {
		t.Fatalf("graph has %d weights, want 2 (tied by phrase bucket)", graph.NumWeights())
	}
	// 4 candidates − 1 supervised are left to infer.
	query := 0
	for v := 0; v < graph.NumVars(); v++ {
		if rel, _ := g.VarTuple(factor.VarID(v)); rel == "MarriedMentions" && !graph.IsEvidence(factor.VarID(v)) {
			query++
		}
	}
	if query != 3 {
		t.Fatalf("%d MarriedMentions query variables, want 3", query)
	}
}

func TestGroundLiteralStructure(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())
	graph := g.Graph()
	// Every FE1 group should have exactly one grounding whose literal is
	// the MarriedCandidate tuple (the only variable-relation body atom).
	for i := 0; i < graph.NumGroups(); i++ {
		gr := graph.Group(i)
		if len(gr.Groundings) != 1 {
			t.Fatalf("group %d has %d groundings, want 1", i, len(gr.Groundings))
		}
		if len(gr.Groundings[0].Lits) != 1 {
			t.Fatalf("group %d grounding has %d literals, want 1", i, len(gr.Groundings[0].Lits))
		}
		lit := gr.Groundings[0].Lits[0]
		rel, _ := g.VarTuple(lit.Var)
		if rel != "MarriedCandidate" || lit.Neg {
			t.Fatalf("group %d literal over %s (neg=%v), want positive MarriedCandidate", i, rel, lit.Neg)
		}
	}
}

// weightByKey deterministically assigns weight values from their interned
// keys so two independently-built graphs can be compared energetically.
func weightByKey(g *Grounder, graph *factor.Graph) {
	for i := 0; i < graph.NumWeights(); i++ {
		h := fnv.New32a()
		h.Write([]byte(g.WeightKey(factor.WeightID(i))))
		v := float64(h.Sum32()%1000)/500.0 - 1.0
		graph.SetWeight(factor.WeightID(i), v)
	}
}

// liveTupleSet returns rel -> tuple keys of live vars.
func liveTupleSet(g *Grounder) map[string]bool {
	out := map[string]bool{}
	for v := 0; v < g.NumVars(); v++ {
		if g.IsLive(factor.VarID(v)) {
			rel, tup := g.VarTuple(factor.VarID(v))
			out[rel+"\x00"+tup.Key()] = true
		}
	}
	return out
}

// requireEquivalent checks that two grounders define the same distribution
// over the shared tuple universe: same live tuples, same evidence, and the
// same energy (up to a constant) for matching assignments. Energy equality
// up to a constant is verified by comparing energy *differences* between
// random assignment pairs.
func requireEquivalent(t *testing.T, a, b *Grounder, seed int64) {
	t.Helper()
	requireCounters(t, a)
	requireCounters(t, b)
	ga, gb := a.Graph(), b.Graph()
	weightByKey(a, ga)
	weightByKey(b, gb)

	la, lb := liveTupleSet(a), liveTupleSet(b)
	if len(la) != len(lb) {
		t.Fatalf("live tuple counts differ: %d vs %d", len(la), len(lb))
	}
	for k := range la {
		if !lb[k] {
			t.Fatalf("tuple %q live in a but not b", k)
		}
	}
	// Evidence agreement.
	for k := range la {
		parts := strings.SplitN(k, "\x00", 2)
		va, _ := a.VarOf(parts[0], db.TupleFromKey(parts[1]))
		vb, _ := b.VarOf(parts[0], db.TupleFromKey(parts[1]))
		if ga.IsEvidence(va) != gb.IsEvidence(vb) {
			t.Fatalf("evidence flag differs on %q", k)
		}
		if ga.IsEvidence(va) && ga.EvidenceValue(va) != gb.EvidenceValue(vb) {
			t.Fatalf("evidence value differs on %q", k)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 0, len(la))
	for k := range la {
		keys = append(keys, k)
	}
	// Deterministic key order for reproducibility.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	buildAssign := func(g *Grounder, graph *factor.Graph, vals map[string]bool) []bool {
		assign := make([]bool, graph.NumVars())
		for k, val := range vals {
			parts := strings.SplitN(k, "\x00", 2)
			v, ok := g.VarOf(parts[0], db.TupleFromKey(parts[1]))
			if !ok {
				t.Fatalf("missing var for %q", k)
			}
			assign[v] = val
		}
		return assign
	}
	var prevDiff float64
	havePrev := false
	for trial := 0; trial < 12; trial++ {
		vals := map[string]bool{}
		for _, k := range keys {
			vals[k] = rng.Intn(2) == 0
		}
		ea := ga.Energy(buildAssign(a, ga, vals))
		eb := gb.Energy(buildAssign(b, gb, vals))
		diff := ea - eb
		if havePrev && math.Abs(diff-prevDiff) > 1e-9 {
			t.Fatalf("energy difference not constant: %v vs %v", diff, prevDiff)
		}
		prevDiff, havePrev = diff, true
	}
}

func TestIncrementalInsertMatchesFullReground(t *testing.T) {
	// Incremental: start with base, apply an update adding a new sentence
	// with two person mentions.
	inc := newSpouseGrounder(t, spouseBase())
	upd := Update{Inserts: map[string][]db.Tuple{
		"Sentence":        {{"s3", "Pat and Chris tied the knot"}},
		"PersonCandidate": {{"s3", "m5"}, {"s3", "m6"}},
		"Mentions":        {{"s3", "m5"}, {"s3", "m6"}},
		"EL":              {{"m5", "Pat"}, {"m6", "Chris"}},
		"Married":         {{"Pat", "Chris"}},
	}}
	delta, err := inc.ApplyUpdate(upd)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.StructureChanged() {
		t.Fatal("insert update should change structure")
	}
	if !delta.HasEvidenceChange() {
		t.Fatal("new Married fact should produce evidence changes")
	}

	// Full: fresh grounder with base + update applied up front.
	base := spouseBase()
	for rel, ts := range upd.Inserts {
		base[rel] = append(base[rel], ts...)
	}
	full := newSpouseGrounder(t, base)
	requireEquivalent(t, inc, full, 101)
}

func TestIncrementalDeleteMatchesFullReground(t *testing.T) {
	inc := newSpouseGrounder(t, spouseBase())
	upd := Update{Deletes: map[string][]db.Tuple{
		"PersonCandidate": {{"s1", "m2"}},
		"Mentions":        {{"s1", "m2"}},
	}}
	if _, err := inc.ApplyUpdate(upd); err != nil {
		t.Fatal(err)
	}
	// Candidates involving m2 must be gone.
	mc := inc.DB().Relation("MarriedCandidate")
	if mc.Count(db.Tuple{"m1", "m2"}) > 0 || mc.Count(db.Tuple{"m2", "m1"}) > 0 {
		t.Fatalf("deleted candidate still visible: %v", mc.Tuples())
	}

	base := spouseBase()
	base["PersonCandidate"] = base["PersonCandidate"][:1]
	base["PersonCandidate"] = append(base["PersonCandidate"], db.Tuple{"s2", "m3"}, db.Tuple{"s2", "m4"})
	base["Mentions"] = []db.Tuple{{"s1", "m1"}, {"s2", "m3"}, {"s2", "m4"}}
	full := newSpouseGrounder(t, base)
	requireEquivalent(t, inc, full, 202)
}

func TestIncrementalNewRuleMatchesFullReground(t *testing.T) {
	// Add the paper's I1-style symmetry rule incrementally.
	const symRule = `
I1: MarriedMentions(m2, m1) :-
    MarriedMentions(m1, m2), MarriedCandidate(m2, m1)
    weight = 0.8.
`
	inc := newSpouseGrounder(t, spouseBase())
	newProg := datalog.MustParse(spouseSrc + symRule)
	rule := newProg.RuleByLabel("I1")
	delta, err := inc.ApplyUpdate(Update{NewRules: []*datalog.Rule{rule}})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.AddedGroups) == 0 {
		t.Fatal("new inference rule added no groups")
	}

	fullProg := datalog.MustParse(spouseSrc + symRule)
	full, err := New(fullProg, testUDFs())
	if err != nil {
		t.Fatal(err)
	}
	for rel, tuples := range spouseBase() {
		if err := full.LoadBase(rel, tuples); err != nil {
			t.Fatal(err)
		}
	}
	if err := full.Ground(); err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, inc, full, 303)
}

func TestIncrementalSupervisionDelta(t *testing.T) {
	inc := newSpouseGrounder(t, spouseBase())
	graph := inc.Graph()
	v, _ := inc.VarOf("MarriedMentions", db.Tuple{"m3", "m4"})
	if graph.IsEvidence(v) {
		t.Fatal("(m3,m4) should start unsupervised")
	}
	// Marrying Malia and Sasha in the KB flips supervision via S1.
	delta, err := inc.ApplyUpdate(Update{Inserts: map[string][]db.Tuple{
		"Married": {{"Malia", "Sasha"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.HasEvidenceChange() {
		t.Fatal("supervision update reported no evidence change")
	}
	graph = inc.Graph()
	if !graph.IsEvidence(v) || !graph.EvidenceValue(v) {
		t.Fatal("evidence not set after supervision update")
	}
	// Removing the KB fact must clear it (DRed deletion through S1).
	if _, err := inc.ApplyUpdate(Update{Deletes: map[string][]db.Tuple{
		"Married": {{"Malia", "Sasha"}},
	}}); err != nil {
		t.Fatal(err)
	}
	graph = inc.Graph()
	if graph.IsEvidence(v) {
		t.Fatal("evidence not cleared after KB fact deletion")
	}
}

func TestDeltaChangedGroupViews(t *testing.T) {
	d := &Delta{ModifiedGroups: []int{3, 1}, AddedGroups: []int{7}}
	old := d.ChangedGroupsOld()
	if len(old) != 2 {
		t.Fatalf("ChangedGroupsOld = %v", old)
	}
	nw := d.ChangedGroupsNew()
	if len(nw) != 3 || nw[2] != 7 {
		t.Fatalf("ChangedGroupsNew = %v", nw)
	}
	if !d.StructureChanged() || d.HasEvidenceChange() || d.HasNewFeatures() {
		t.Fatal("delta flags wrong")
	}
}

func TestRecursionRejected(t *testing.T) {
	src := `
@relation R(x, y).
@relation T(x, y).
T(x, y) :- R(x, y).
T(x, z) :- T(x, y), T(y, z).
`
	_, err := New(datalog.MustParse(src), nil)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("recursion accepted: %v", err)
	}
}

func TestUnknownUDFRejected(t *testing.T) {
	src := `
@variable Q(x).
@relation R(x).
Q(x) :- R(x) weight = mystery(x).
`
	_, err := New(datalog.MustParse(src), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown UDF") {
		t.Fatalf("unknown UDF accepted: %v", err)
	}
}

func TestNegatedVariableRelationInWeightedRuleRejected(t *testing.T) {
	src := `
@variable Q(x).
@variable P(x).
@relation R(x).
Q(x) :- R(x), !P(x) weight = 1.
`
	_, err := New(datalog.MustParse(src), nil)
	if err == nil || !strings.Contains(err.Error(), "negates variable relation") {
		t.Fatalf("negated variable relation accepted: %v", err)
	}
}

func TestDirectInsertIntoDerivedRejected(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())
	_, err := g.ApplyUpdate(Update{Inserts: map[string][]db.Tuple{
		"MarriedCandidate": {{"mX", "mY"}},
	}})
	if err == nil || !strings.Contains(err.Error(), "derived relation") {
		t.Fatalf("direct derived insert accepted: %v", err)
	}
}

func TestBadEvidenceLabelRejected(t *testing.T) {
	src := `
@variable Q(x).
@relation Q_Ev(x, label).
@relation R(x, label).
S: Q_Ev(x, l) :- R(x, l).
`
	g, err := New(datalog.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LoadBase("R", []db.Tuple{{"a", "maybe"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Ground(); err == nil || !strings.Contains(err.Error(), "must be true or false") {
		t.Fatalf("bad label accepted: %v", err)
	}
}

// TestLoadBaseIsTheFirstUpdate: base tuples loaded before Ground ground
// exactly as the same tuples inserted by a first ApplyUpdate — the same
// graph, evidence and grounder image. In particular a loaded evidence
// relation supervises its variables, as an inserted one does.
func TestLoadBaseIsTheFirstUpdate(t *testing.T) {
	const src = `
@variable Q(x).
@relation Q_Ev(x, label).
@relation R(x, f).
Q(x) :- R(x, f) weight = w(f).
`
	base := baseData{
		"Q":    {{"a"}, {"b"}, {"c"}},
		"Q_Ev": {{"a", "true"}, {"b", "false"}},
		"R":    {{"a", "f1"}, {"b", "f1"}, {"c", "f2"}},
	}
	loaded := loadGrounder(t, src, base, nil)
	bmust(t, loaded.Ground())
	inserted, err := New(datalog.MustParse(src), nil)
	bmust(t, err)
	_, err = inserted.ApplyUpdate(Update{Inserts: base})
	bmust(t, err)

	graph := loaded.Graph()
	for _, want := range []struct {
		x           string
		ev, evValue bool
	}{{"a", true, true}, {"b", true, false}, {"c", false, false}} {
		v, ok := loaded.VarOf("Q", db.Tuple{want.x})
		if !ok || graph.IsEvidence(v) != want.ev || graph.EvidenceValue(v) != want.evValue {
			t.Fatalf("Q(%s): var %v, evidence %v value %v; want evidence %v value %v",
				want.x, ok, graph.IsEvidence(v), graph.EvidenceValue(v), want.ev, want.evValue)
		}
	}
	if d := factor.DiffGraphs(graph, inserted.Graph(), 50, 1); len(d) > 0 {
		t.Fatalf("loaded and inserted base ground different graphs: %v", d)
	}
	image := func(g *Grounder) []byte {
		var b persist.Buf
		g.AppendSnapshot(&b)
		return b.Bytes()
	}
	if !bytes.Equal(image(loaded), image(inserted)) {
		t.Fatal("loaded and inserted base leave different grounding tables")
	}
}

func TestUpdateEmpty(t *testing.T) {
	u := Update{}
	if !u.Empty() {
		t.Fatal("zero update not empty")
	}
	u.Inserts = map[string][]db.Tuple{"R": {{"a"}}}
	if u.Empty() {
		t.Fatal("non-zero update empty")
	}
}

func TestLoadBaseErrors(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())
	if err := g.LoadBase("Nope", nil); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := g.LoadBase("MarriedCandidate", nil); err == nil {
		t.Fatal("derived relation accepted")
	}
	if err := g.LoadBase("Sentence", []db.Tuple{{"s9", "late"}}); err == nil {
		t.Fatal("base accepted after the initial grounding")
	}
	if err := g.Ground(); err == nil {
		t.Fatal("second Ground accepted")
	}
}

func TestFixedWeightGrounding(t *testing.T) {
	src := `
@variable Q(x).
@relation R(x).
Q(x) :- R(x).
Q(x) :- R(x) weight = 2.5.
`
	g, err := New(datalog.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LoadBase("R", []db.Tuple{{"a"}, {"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Ground(); err != nil {
		t.Fatal(err)
	}
	graph := g.Graph()
	if graph.NumWeights() != 1 || graph.Weight(0) != 2.5 {
		t.Fatalf("fixed weight: n=%d v=%v", graph.NumWeights(), graph.Weight(0))
	}
	if len(g.LearnableWeights()) != 0 {
		t.Fatal("fixed weight reported learnable")
	}
}

func TestTiedWeightGrounding(t *testing.T) {
	src := `
@variable Class(x).
@relation R(x, f).
Class(x) :- R(x, f).
Class(x) :- R(x, f) weight = w(f).
`
	g, err := New(datalog.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LoadBase("R", []db.Tuple{
		{"a", "f1"}, {"b", "f1"}, {"c", "f2"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Ground(); err != nil {
		t.Fatal(err)
	}
	graph := g.Graph()
	// Two distinct features -> two tied weights shared across objects.
	if graph.NumWeights() != 2 {
		t.Fatalf("weights = %d, want 2", graph.NumWeights())
	}
	if len(g.LearnableWeights()) != 2 {
		t.Fatalf("learnable = %d, want 2", len(g.LearnableWeights()))
	}
	if graph.NumGroups() != 3 {
		t.Fatalf("groups = %d, want 3 (one per object/weight)", graph.NumGroups())
	}
}

func TestWeightsSurviveGraphRebuild(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())
	graph := g.Graph()
	graph.SetWeight(0, 3.25)
	if _, err := g.ApplyUpdate(Update{Inserts: map[string][]db.Tuple{
		"Sentence": {{"s9", "filler text here"}},
	}}); err != nil {
		t.Fatal(err)
	}
	graph2 := g.Graph()
	if graph2.Weight(0) != 3.25 {
		t.Fatalf("weight lost on rebuild: %v", graph2.Weight(0))
	}
}

func TestGroundingCountsReporting(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())
	if g.NumGroups() != 4 || g.NumGroundings() != 4 {
		t.Fatalf("groups=%d groundings=%d, want 4/4", g.NumGroups(), g.NumGroundings())
	}
	if g.NumVars() != 8 {
		t.Fatalf("vars=%d, want 8", g.NumVars())
	}
}

// TestQuickRandomUpdateSequences drives the incremental grounder through
// random insert/delete sequences and checks, after every step, that it
// defines the same distribution as a fresh full grounding of the same
// base state — the end-to-end DRed correctness property.
func TestQuickRandomUpdateSequences(t *testing.T) {
	people := []string{"m1", "m2", "m3", "m4", "m5", "m6"}
	ents := []string{"A", "B", "C", "D", "E", "F"}
	sents := []string{"s1", "s2", "s3"}

	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		inc := newSpouseGrounder(t, spouseBase())
		base := spouseBase()

		present := map[string]map[string]bool{}
		has := func(rel string, tu db.Tuple) bool {
			return present[rel] != nil && present[rel][tu.Key()]
		}
		mark := func(rel string, tu db.Tuple, on bool) {
			if present[rel] == nil {
				present[rel] = map[string]bool{}
			}
			present[rel][tu.Key()] = on
		}
		for rel, ts := range base {
			for _, tu := range ts {
				mark(rel, tu, true)
			}
		}

		for step := 0; step < 4; step++ {
			upd := Update{Inserts: map[string][]db.Tuple{}, Deletes: map[string][]db.Tuple{}}
			for k := 0; k < 3; k++ {
				var rel string
				var tu db.Tuple
				switch rng.Intn(3) {
				case 0:
					rel = "PersonCandidate"
					tu = db.Tuple{sents[rng.Intn(len(sents))], people[rng.Intn(len(people))]}
				case 1:
					rel = "Mentions"
					tu = db.Tuple{sents[rng.Intn(len(sents))], people[rng.Intn(len(people))]}
				default:
					rel = "Married"
					tu = db.Tuple{ents[rng.Intn(len(ents))], ents[rng.Intn(len(ents))]}
				}
				if has(rel, tu) {
					if rng.Intn(2) == 0 {
						upd.Deletes[rel] = append(upd.Deletes[rel], tu)
						mark(rel, tu, false)
					}
				} else {
					upd.Inserts[rel] = append(upd.Inserts[rel], tu)
					mark(rel, tu, true)
				}
			}
			if _, err := inc.ApplyUpdate(upd); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}

			// Fresh grounder over the accumulated base state.
			fresh := map[string][]db.Tuple{}
			for rel, keys := range present {
				for key, on := range keys {
					if on {
						fresh[rel] = append(fresh[rel], db.TupleFromKey(key))
					}
				}
			}
			for rel, ts := range base {
				if present[rel] == nil {
					fresh[rel] = ts
				}
			}
			full := newSpouseGrounder(t, fresh)
			requireEquivalent(t, inc, full, int64(7000+trial*10+step))
		}
	}
}

// A group's groundings are chained through the grounding slab and found
// through the grounder-wide grounding table, both rebuilt by the snapshot
// codec from the groundings' order. Groups of one, a few and many
// groundings, growing and shrinking, must survive a snapshot round trip and
// keep taking updates exactly as the grounder they were saved from.
func TestSnapshotRestoreAcrossGroupSizes(t *testing.T) {
	const src = `
@variable Class(x).
@relation R(x, f).
Class(x) :- R(x, f).
Class(x) :- R(x, f) weight = 0.5.
`
	build := func() *Grounder {
		g, err := New(datalog.MustParse(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	live := build()
	var base []db.Tuple
	const few = 8
	for i := 0; i < 2*few; i++ { // wide: one group, 2·few groundings
		base = append(base, db.Tuple{"wide", fmt.Sprint("f", i)})
	}
	for i := 0; i < few; i++ { // edge: exactly few, grows past it below
		base = append(base, db.Tuple{"edge", fmt.Sprint("f", i)})
	}
	base = append(base, db.Tuple{"one", "f0"})
	if err := live.LoadBase("R", base); err != nil {
		t.Fatal(err)
	}
	if err := live.Ground(); err != nil {
		t.Fatal(err)
	}
	image := func(g *Grounder) []byte {
		var b persist.Buf
		g.AppendSnapshot(&b)
		return b.Bytes()
	}
	restored, err := Restore(datalog.MustParse(src), nil, persist.NewRdOwned(image(live)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(restored), image(live)) {
		t.Fatal("the restored grounder encodes another snapshot than the one it was restored from")
	}
	// The restored grounder builds its graph from the restored tables, as a
	// restored KB does, numbering the groundings as the live one's did.
	graphImage := func(g *Grounder) []byte {
		var b persist.Buf
		g.Graph().AppendSnapshot(&b)
		return b.Bytes()
	}
	if !bytes.Equal(graphImage(restored), graphImage(live)) {
		t.Fatal("the restored grounder builds another graph than the live one's")
	}
	for _, u := range []Update{
		{Inserts: map[string][]db.Tuple{"R": {{"edge", "f100"}, {"one", "f1"}, {"wide", "f100"}}}},
		{Deletes: map[string][]db.Tuple{"R": {{"edge", "f0"}, {"wide", "f3"}, {"wide", "f100"}}}},
		{Inserts: map[string][]db.Tuple{"R": {{"wide", "f3"}}}},
	} {
		for _, g := range []*Grounder{live, restored} {
			if _, err := g.ApplyUpdate(cloneUpdate(u)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(image(restored), image(live)) {
			t.Fatalf("after %v the restored grounder and the live one differ", u)
		}
		if d := factor.DiffGraphs(restored.Graph(), live.Graph(), 50, 1); len(d) > 0 {
			t.Fatalf("after %v their graphs differ: %v", u, d)
		}
	}
}

// encodedGroups reads the group keys and the binding keys of their
// groundings out of a spouse grounder's snapshot, walking the format
// without RestoreSnapshot.
func encodedGroups(t *testing.T, image []byte) (groups []groupKey, bindings [][]uint32) {
	t.Helper()
	rd := persist.NewRd(image)
	rd.U8("codec version")
	rd.U64("grounding version")
	rels, err := New(datalog.MustParse(spouseSrc), testUDFs())
	bmust(t, err)
	bmust(t, rels.DB().Symbols().RestoreSnapshot(rd))
	for _, name := range rd.Strs("relation names") {
		bmust(t, rels.DB().Relation(name).RestoreSnapshot(rd))
	}
	rd.U32s("var keys")
	rd.Bools("var live")
	rd.Ints("var evTrue")
	rd.Ints("var evFalse")
	rd.Strs("weight keys")
	rd.F64s("weight init")
	rd.Bools("weight learn")
	words := rd.U32s("groups")
	for w := 0; w+groupWords <= len(words); w += groupWords {
		groups = append(groups, groupKey{int32(words[w]), factor.VarID(words[w+1]), factor.WeightID(words[w+2])})
	}
	gnds := rd.I32s("groundings")
	keys := rd.U32s("grounding keys")
	rd.I32s("grounding lits")
	// Rule 2 binds m1, m2, s and the sentence; rule 4 binds m1 and m2: one
	// id each, and the groundings' keys take the key array exactly.
	for w := 0; w+gndWords <= len(gnds); w += gndWords {
		n := 2
		if groups[gnds[w]].rule == 2 {
			n = 4
		}
		if len(keys) < n {
			t.Fatalf("grounding %d: %d key ids left, want %d", w/gndWords, len(keys), n)
		}
		bindings = append(bindings, keys[:n])
		keys = keys[n:]
	}
	if len(keys) > 0 {
		t.Fatalf("%d binding key ids left over", len(keys))
	}
	if !rd.Done() {
		t.Fatalf("walking the snapshot: %v (done %v)", rd.Err(), rd.Done())
	}
	return groups, bindings
}

// TestSnapshotGroupKeys pins the group section of the grounder codec:
// groups are interned and persisted by their integer key (rule, head,
// weight), a grounding by its binding's ids — 4 bytes per rule variable,
// no value's text — and a restored grounder finds every group by its
// integers and encodes the image it was restored from.
func TestSnapshotGroupKeys(t *testing.T) {
	const symRule = "I1: MarriedMentions(m2, m1) :- MarriedMentions(m1, m2), MarriedCandidate(m2, m1) weight = 0.8."
	live := newSpouseGrounder(t, spouseBase())
	_, err := live.ApplyUpdate(Update{
		Inserts:  map[string][]db.Tuple{"PersonCandidate": {{"s2", "m5"}}, "Mentions": {{"s2", "m5"}}},
		NewRules: datalog.MustParse(spouseSrc + symRule).Rules[4:],
	})
	bmust(t, err)
	var b persist.Buf
	live.AppendSnapshot(&b)
	image := b.Bytes()

	graph := live.Graph()
	groups, bindings := encodedGroups(t, image)
	if len(groups) != graph.NumGroups() {
		t.Fatalf("%d encoded groups, the graph has %d", len(groups), graph.NumGroups())
	}
	first, _ := live.VarOf("MarriedMentions", db.Tuple{"m1", "m2"})
	if want := (groupKey{2, first, 0}); groups[0] != want {
		t.Fatalf("first group key %v, want %v", groups[0], want)
	}
	// The rule index is also the weight key's: "w:<rule>[:…]".
	ruleOf := func(w factor.WeightID) int {
		rest := strings.TrimPrefix(live.WeightKey(w), "w:")
		rule, err := strconv.Atoi(rest[:strings.IndexByte(rest+":", ':')])
		bmust(t, err)
		return rule
	}
	restored, err := Restore(datalog.MustParse(spouseSrc+symRule), testUDFs(), persist.NewRdOwned(append([]byte(nil), image...)))
	bmust(t, err)
	rules := map[int]int{}
	for gi, key := range groups {
		gr := graph.Group(gi)
		rule := ruleOf(gr.Weight)
		rules[rule]++
		if want := (groupKey{int32(rule), gr.Head, gr.Weight}); key != want {
			t.Fatalf("group %d encoded as %v, want %v", gi, key, want)
		}
		if i, ok := restored.findGroup(key, hashGroup(key)); !ok || restored.groupTab.Pos(i) != int32(gi) {
			t.Fatalf("restored grounder does not find group %d (%v) at its index", gi, key)
		}
	}
	if rules[2] == 0 || rules[4] == 0 {
		t.Fatalf("groups by rule %v, want both weighted rules", rules)
	}
	for _, k := range bindings {
		if slices.ContainsFunc(k, func(id uint32) bool { return int(id) >= live.DB().Symbols().Len() }) {
			t.Fatalf("binding key %v holds an id past the symbol table", k)
		}
	}
	var rb persist.Buf
	restored.AppendSnapshot(&rb)
	if !bytes.Equal(rb.Bytes(), image) {
		t.Fatal("the restored grounder encodes another image than the one it was restored from")
	}
}
