package factor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scopeGraph is a patched graph of n/4 four-variable clusters — a free
// pair and a free variable joined through an evidence one — with tied
// weights across clusters, a grounding added to every third cluster and
// one removed from every fifth.
func scopeGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder()
	shared := b.AddWeight(0.6)
	for c := 0; c < n/4; c++ {
		x, y, z := b.AddVar(), b.AddVar(), b.AddVar()
		e := b.AddEvidenceVar(c%2 == 0)
		own := b.AddWeight(0.1 * float64(c+1))
		b.AddGroup(x, own, Ratio, []Grounding{{Lits: []Literal{{Var: y}}}, {Lits: []Literal{{Var: y, Neg: true}, {Var: e}}}})
		b.AddGroup(z, shared, Linear, []Grounding{{Lits: []Literal{{Var: e}}}})
		b.AddGroup(y, shared, Logical, nil)
	}
	g := b.MustBuild()
	p := NewPatch(g)
	for c := 0; c < n/4; c++ {
		if c%3 == 0 {
			p.AddGrounding(3*c+1, []Literal{{Var: VarID(4 * c), Neg: true}}) // z's group gains x
		}
		if c%5 == 0 {
			p.RemoveGrounding(g.gndOff[3*c]) // x's group loses its first grounding
		}
	}
	return p.Apply()
}

// TestInducedEnergyMatchesParent: on the subgraph induced by a closed
// scope, every world scores what the parent scores it over the scope's
// groups, under the same weight ids and evidence.
func TestInducedEnergyMatchesParent(t *testing.T) {
	g := scopeGraph(t, 40)
	r := g.NewReach(false)
	for _, v := range []VarID{5, 13, 36} { // clusters 1, 3, 9
		r.Grow(v, false)
	}
	vars := r.Sorted()
	if !slices.Equal(vars, []VarID{4, 5, 6, 7, 12, 13, 14, 15, 36, 37, 38, 39}) {
		t.Fatalf("scope = %v", vars)
	}
	sub, groups := g.Induced(vars)
	if !slices.Equal(groups, []int32{3, 4, 5, 9, 10, 11, 27, 28, 29}) {
		t.Fatalf("induced groups = %v", groups)
	}
	if sub.NumVars() != len(vars) || sub.NumWeights() != g.NumWeights() || sub.NumGroups() != len(groups) {
		t.Fatalf("induced graph: %d vars, %d weights, %d groups", sub.NumVars(), sub.NumWeights(), sub.NumGroups())
	}
	for i, v := range vars {
		if sub.IsEvidence(VarID(i)) != g.IsEvidence(v) || sub.EvidenceValue(VarID(i)) != g.EvidenceValue(v) {
			t.Fatalf("variable %d lost its evidence state", v)
		}
	}
	rng := rand.New(rand.NewSource(1))
	world, local := make([]bool, g.NumVars()), make([]bool, len(vars))
	for trial := 0; trial < 200; trial++ {
		for v := range world {
			world[v] = rng.Intn(2) == 0
		}
		for i, v := range vars {
			local[i] = world[v]
		}
		if got, want := sub.Energy(local), g.EnergyOfGroups(world, groups); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: induced energy %v, parent energy over the scope's groups %v", trial, got, want)
		}
	}
	// The subgraph's weights are its own.
	sub.SetWeight(0, 9)
	if g.Weight(0) == 9 {
		t.Fatal("induced graph shares the parent's weight table")
	}
}

// TestReachAdjacencies: released, an evidence variable bridges what it
// touches; free, it joins as a boundary and bridges nothing until it is
// grown itself; and evidenceOnly drops the components without evidence.
func TestReachAdjacencies(t *testing.T) {
	b := NewBuilder()
	w := b.AddWeight(1)
	a, c := b.AddVar(), b.AddVar()
	hub := b.AddEvidenceVar(true)
	lone1, lone2 := b.AddVar(), b.AddVar()
	b.AddGroup(a, w, Linear, []Grounding{{Lits: []Literal{{Var: hub}}}})
	b.AddGroup(c, w, Linear, []Grounding{{Lits: []Literal{{Var: hub}}}})
	b.AddGroup(lone1, w, Linear, []Grounding{{Lits: []Literal{{Var: lone2}}}})
	g := b.MustBuild()

	released := g.NewReach(false)
	released.Grow(a, false)
	if !slices.Equal(released.Sorted(), []VarID{a, c, hub}) {
		t.Fatalf("released from a: %v", released.Vars)
	}
	released.Grow(lone1, true)
	if released.Has(lone1) || len(released.Vars) != 3 {
		t.Fatalf("a component without evidence survived evidenceOnly: %v", released.Vars)
	}
	released.Grow(lone2, false) // visited and dropped: stays out
	if released.Has(lone2) {
		t.Fatal("a dropped component was re-added")
	}

	free := g.NewReach(true)
	free.Grow(a, false)
	if !slices.Equal(free.Sorted(), []VarID{a, hub}) {
		t.Fatalf("free from a: %v", free.Vars)
	}
	free.Grow(hub, false) // the hub's own evidence changed: everything it touches is dirty
	if !slices.Equal(free.Sorted(), []VarID{a, c, hub}) {
		t.Fatalf("free after growing the hub: %v", free.Vars)
	}
}
