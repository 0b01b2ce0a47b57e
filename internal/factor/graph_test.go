package factor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// votingGraph builds the Example 2.5 voting program: one query variable q,
// nUp evidence-true "Up" tuples and nDown evidence-true "Down" tuples,
// with rules q :- Up(x) [w=+1] and q :- Down(x) [w=-1].
func votingGraph(sem Semantics, nUp, nDown int, evidence bool) (*Graph, VarID) {
	b := NewBuilder()
	q := b.AddVar()
	wUp := b.AddWeight(1)
	wDown := b.AddWeight(-1)
	var upG, downG []Grounding
	for i := 0; i < nUp; i++ {
		var v VarID
		if evidence {
			v = b.AddEvidenceVar(true)
		} else {
			v = b.AddVar()
		}
		upG = append(upG, Grounding{Lits: []Literal{{Var: v}}})
	}
	for i := 0; i < nDown; i++ {
		var v VarID
		if evidence {
			v = b.AddEvidenceVar(true)
		} else {
			v = b.AddVar()
		}
		downG = append(downG, Grounding{Lits: []Literal{{Var: v}}})
	}
	b.AddGroup(q, wUp, sem, upG)
	b.AddGroup(q, wDown, sem, downG)
	return b.MustBuild(), q
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	v0 := b.AddVar()
	v1 := b.AddEvidenceVar(true)
	w := b.AddWeight(2.5)
	b.AddGroup(v0, w, Linear, []Grounding{{Lits: []Literal{{Var: v1}}}})
	g := b.MustBuild()
	if g.NumVars() != 2 || g.NumGroups() != 1 || g.NumWeights() != 1 || g.NumGroundings() != 1 {
		t.Fatalf("counts: vars=%d groups=%d weights=%d groundings=%d",
			g.NumVars(), g.NumGroups(), g.NumWeights(), g.NumGroundings())
	}
	if g.IsEvidence(v0) || !g.IsEvidence(v1) || !g.EvidenceValue(v1) {
		t.Fatal("evidence flags wrong")
	}
	if g.Weight(w) != 2.5 {
		t.Fatalf("Weight = %v, want 2.5", g.Weight(w))
	}
	g.SetWeight(w, -1)
	if g.Weight(w) != -1 {
		t.Fatalf("SetWeight did not stick")
	}
}

// TestBuilderFlatGroups: the builder's flat surface — a grounding appended
// to the last group, one without literals (satisfied in every world, the
// body of a unary potential), and a group copied from a graph's pools with
// its variables renamed, or not at all when one of them has no new name.
func TestBuilderFlatGroups(t *testing.T) {
	b := NewBuilder()
	v0, v1 := b.AddVar(), b.AddVar()
	b.AddGroup(v0, b.AddWeight(0.75), Linear, nil)
	b.AddGrounding(nil) // unary: energy ±0.75 with v0
	b.AddGroup(v1, b.AddWeight(-2), Ratio, []Grounding{{Lits: []Literal{{Var: v0}}}})
	b.AddGrounding([]Literal{{Var: v0, Neg: true}, {Var: v1}})
	g := b.MustBuild()
	if g.NumGroundings() != 3 || len(g.Group(1).Groundings) != 2 || !g.Group(1).Groundings[1].Lits[0].Neg {
		t.Fatalf("groups = %+v, %+v", g.Group(0), g.Group(1))
	}
	u := NewBuilder()
	x := u.AddVar()
	u.AddGroup(x, u.AddWeight(0.75), Linear, nil)
	u.AddGrounding(nil)
	ug := u.MustBuild()
	if d, direct := NewState(ug).EnergyDelta(x), ug.EnergyDeltaOf([]bool{true}, x); d != 1.5 || direct != 1.5 {
		t.Fatalf("unary of weight 0.75: E(x=1) − E(x=0) = %v on the counters, %v directly, want 1.5", d, direct)
	}
	st := NewState(g)
	for _, assign := range [][]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		st.SetAssignment(assign)
		if math.Abs(st.Energy()-g.Energy(assign)) > 1e-12 {
			t.Fatalf("world %v: counters give %v, direct evaluation %v", assign, st.Energy(), g.Energy(assign))
		}
	}

	// Copy group 1 into a builder whose variables are the old ones swapped.
	swap := func(v VarID) VarID { return 1 - v }
	c := NewBuilder()
	c.AddVar()
	c.AddVar()
	if gi := c.CopyGroup(g, 1, c.AddWeight(5), swap); gi != 0 {
		t.Fatalf("CopyGroup = %d", gi)
	}
	if gi := c.CopyGroup(g, 1, 0, func(v VarID) VarID {
		if v == v1 {
			return NoVar
		}
		return v
	}); gi != -1 {
		t.Fatalf("CopyGroup of a group with an unmapped variable = %d, want -1", gi)
	}
	c.AddGroup(0, 0, Logical, nil) // lands after the copy as if the refused one was never tried
	cg := c.MustBuild()
	got, want := cg.Group(0), g.Group(1)
	if cg.NumGroups() != 2 || cg.NumGroundings() != 2 || got.Head != v0 || got.Sem != Ratio || cg.Weight(got.Weight) != 5 ||
		got.Groundings[1].Lits[0] != (Literal{Var: v1, Neg: true}) || got.Groundings[1].Lits[1] != (Literal{Var: v0}) || len(got.Groundings) != len(want.Groundings) {
		t.Fatalf("copied group = %+v, from %+v", got, want)
	}
}

func TestBuildValidation(t *testing.T) {
	b := NewBuilder()
	v := b.AddVar()
	w := b.AddWeight(1)
	b.AddGroup(VarID(7), w, Linear, nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range head accepted")
	}
	b2 := NewBuilder()
	v = b2.AddVar()
	b2.AddGroup(v, WeightID(3), Linear, nil)
	if _, err := b2.Build(); err == nil {
		t.Fatal("out-of-range weight accepted")
	}
	b3 := NewBuilder()
	v = b3.AddVar()
	w = b3.AddWeight(1)
	b3.AddGroup(v, w, Linear, []Grounding{{Lits: []Literal{{Var: 99}}}})
	if _, err := b3.Build(); err == nil {
		t.Fatal("out-of-range body var accepted")
	}
}

func TestEnergyVotingClosedForm(t *testing.T) {
	for _, sem := range []Semantics{Linear, Logical, Ratio} {
		g, q := votingGraph(sem, 5, 3, true)
		assign := make([]bool, g.NumVars())
		for v := 1; v < g.NumVars(); v++ {
			assign[v] = true
		}
		assign[q] = true
		e1 := g.Energy(assign)
		assign[q] = false
		e0 := g.Energy(assign)
		wantDelta := 2 * (sem.G(5) - sem.G(3)) // (g5 - g3) - (-(g5 - g3))
		if math.Abs((e1-e0)-wantDelta) > 1e-12 {
			t.Errorf("%v: E1-E0 = %v, want %v", sem, e1-e0, wantDelta)
		}
	}
}

func TestEnergyOfGroupsMatchesTotal(t *testing.T) {
	g, _ := votingGraph(Ratio, 4, 4, true)
	assign := make([]bool, g.NumVars())
	for i := range assign {
		assign[i] = i%2 == 0
	}
	all := []int32{0, 1}
	if d := math.Abs(g.Energy(assign) - g.EnergyOfGroups(assign, all)); d > 1e-12 {
		t.Fatalf("EnergyOfGroups(all) differs from Energy by %v", d)
	}
	part := g.EnergyOfGroups(assign, []int32{0})
	rest := g.EnergyOfGroups(assign, []int32{1})
	if d := math.Abs(g.Energy(assign) - part - rest); d > 1e-12 {
		t.Fatalf("group energies don't sum: diff %v", d)
	}
}

func TestAdjacentGroups(t *testing.T) {
	g, q := votingGraph(Linear, 2, 2, true)
	adj := g.AdjacentGroups(q)
	if len(adj) != 2 {
		t.Fatalf("q adjacent to %d groups, want 2", len(adj))
	}
	// An Up evidence var is in exactly one group.
	adj = g.AdjacentGroups(1)
	if len(adj) != 1 || adj[0] != 0 {
		t.Fatalf("up var adjacency = %v, want [0]", adj)
	}
}

func TestStateCountersMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, _ := votingGraph(Ratio, 6, 6, false)
	s := NewState(g)
	for step := 0; step < 500; step++ {
		v := VarID(rng.Intn(g.NumVars()))
		s.Set(v, rng.Intn(2) == 0)
	}
	// Compare with a recount from scratch.
	want := NewStateWith(g, s.Assign)
	for gi := 0; gi < g.NumGroups(); gi++ {
		if s.Support(gi) != want.Support(gi) {
			t.Fatalf("group %d support drifted: inc=%d scratch=%d", gi, s.Support(gi), want.Support(gi))
		}
	}
	if d := math.Abs(s.Energy() - g.Energy(s.Assign)); d > 1e-9 {
		t.Fatalf("State.Energy drifted from Graph.Energy by %v", d)
	}
}

func TestEnergyDeltaMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 8, 12, 3)
		s := NewState(g)
		for i := 0; i < 30; i++ {
			v := VarID(rng.Intn(g.NumVars()))
			if !g.IsEvidence(v) {
				s.Set(v, rng.Intn(2) == 0)
			}
		}
		for v := VarID(0); int(v) < g.NumVars(); v++ {
			if g.IsEvidence(v) {
				continue
			}
			work := append([]bool(nil), s.Assign...)
			work[v] = true
			e1 := g.Energy(work)
			work[v] = false
			e0 := g.Energy(work)
			if d := math.Abs(s.EnergyDelta(v) - (e1 - e0)); d > 1e-9 {
				t.Fatalf("trial %d var %d: EnergyDelta=%v brute=%v", trial, v, s.EnergyDelta(v), e1-e0)
			}
		}
	}
}

// randomGraph builds a random graph with nv vars (some evidence), ng
// groups, and up to litsPer literals per grounding; heads may also appear
// in bodies to exercise the combined head/body path.
func randomGraph(rng *rand.Rand, nv, ng, litsPer int) *Graph {
	b := NewBuilder()
	for i := 0; i < nv; i++ {
		if rng.Float64() < 0.25 {
			b.AddEvidenceVar(rng.Intn(2) == 0)
		} else {
			b.AddVar()
		}
	}
	for i := 0; i < ng; i++ {
		w := b.AddWeight(rng.NormFloat64())
		head := VarID(rng.Intn(nv))
		nGnd := 1 + rng.Intn(3)
		var gnds []Grounding
		for k := 0; k < nGnd; k++ {
			nl := 1 + rng.Intn(litsPer)
			var lits []Literal
			for l := 0; l < nl; l++ {
				lits = append(lits, Literal{Var: VarID(rng.Intn(nv)), Neg: rng.Intn(2) == 0})
			}
			gnds = append(gnds, Grounding{Lits: lits})
		}
		sem := Semantics(rng.Intn(3))
		b.AddGroup(head, w, sem, gnds)
	}
	return b.MustBuild()
}

func TestSetEvidencePanics(t *testing.T) {
	g, _ := votingGraph(Linear, 1, 1, true)
	s := NewState(g)
	defer func() {
		if recover() == nil {
			t.Fatal("Set on evidence variable did not panic")
		}
	}()
	s.Set(1, false)
}

func TestSyncEvidence(t *testing.T) {
	g, q := votingGraph(Linear, 2, 2, false)
	s := NewState(g)
	s.Set(1, true)
	g.SetEvidence(1, true, false)
	s.SyncEvidence()
	if s.Assign[1] != false {
		t.Fatal("SyncEvidence did not force evidence value")
	}
	// Counters must still be consistent.
	want := NewStateWith(g, s.Assign)
	for gi := 0; gi < g.NumGroups(); gi++ {
		if s.Support(gi) != want.Support(gi) {
			t.Fatalf("group %d support inconsistent after SyncEvidence", gi)
		}
	}
	_ = q
}

func TestSetAssignmentRespectsEvidence(t *testing.T) {
	g, q := votingGraph(Linear, 2, 2, true)
	s := NewState(g)
	proposal := make([]bool, g.NumVars()) // everything false, incl. evidence
	proposal[q] = true
	s.SetAssignment(proposal)
	if !s.Assign[1] {
		t.Fatal("SetAssignment overwrote evidence value")
	}
	if !s.Assign[q] {
		t.Fatal("SetAssignment dropped free-variable value")
	}
}

func TestWeightStats(t *testing.T) {
	g, q := votingGraph(Logical, 3, 2, true)
	s := NewState(g)
	s.Set(q, true)
	stats := make([]float64, g.NumWeights())
	s.WeightStats(stats)
	// sign(q)=+1, g(3)=1 for weight 0; g(2)=1 for weight 1.
	if stats[0] != 1 || stats[1] != 1 {
		t.Fatalf("stats = %v, want [1 1]", stats)
	}
	s.Set(q, false)
	stats[0], stats[1] = 0, 0
	s.WeightStats(stats)
	if stats[0] != -1 || stats[1] != -1 {
		t.Fatalf("stats = %v, want [-1 -1]", stats)
	}
}

func TestNewBuilderFromIsDeepCopy(t *testing.T) {
	g, q := votingGraph(Linear, 2, 2, true)
	b := NewBuilderFrom(g)
	nv := b.AddVar()
	w := b.AddWeight(3)
	b.AddGroup(nv, w, Linear, []Grounding{{Lits: []Literal{{Var: q}}}})
	g2 := b.MustBuild()
	if g2.NumVars() != g.NumVars()+1 || g2.NumGroups() != g.NumGroups()+1 {
		t.Fatalf("extended graph wrong shape: vars %d groups %d", g2.NumVars(), g2.NumGroups())
	}
	// Mutating the copy's grounding must not touch the original.
	g2.Group(0).Groundings[0].Lits[0].Neg = true
	if g.Group(0).Groundings[0].Lits[0].Neg {
		t.Fatal("NewBuilderFrom shared grounding storage")
	}
}

// Property test: incremental Set always agrees with a full Recount, and
// EnergyDelta always agrees with brute-force energy differences, on random
// graphs and random walks.
func TestQuickStateConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(8), 1+rng.Intn(10), 3)
		s := NewState(g)
		for i := 0; i < 40; i++ {
			v := VarID(rng.Intn(g.NumVars()))
			if g.IsEvidence(v) {
				continue
			}
			val := rng.Intn(2) == 0
			work := append([]bool(nil), s.Assign...)
			work[v] = true
			e1 := g.Energy(work)
			work[v] = false
			e0 := g.Energy(work)
			if math.Abs(s.EnergyDelta(v)-(e1-e0)) > 1e-9 {
				return false
			}
			s.Set(v, val)
			if math.Abs(s.Energy()-g.Energy(s.Assign)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
