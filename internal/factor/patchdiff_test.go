package factor_test

// Differential harness for the O(Δ) in-place patch path: randomized
// update sequences are applied twice — through factor.Patch on a live
// graph, and to an independent nested model that is rebuilt from scratch
// through factor.Builder after every step — and the two graphs must stay
// semantically identical (energies, conditional deltas under both
// evaluation paths, weight statistics, adjacency sets, marginals at a
// fixed seed). A patch writes its graph in place, so a Clone taken before
// each patch is re-checked after it, and every such clone once more after
// the last patch: a clone shares nothing with the graph it was taken from,
// however many patches on.
//
// Failures print the subtest seed (t.Run("seed=N")); re-run with
// -run 'TestPatchDifferential/seed=N' to reproduce.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// modelGnd is one grounding of the oracle model with its flat-pool id in
// the patched graph (for targeted removal).
type modelGnd struct {
	lits   []factor.Literal
	live   bool
	flatID int32
}

type modelGroup struct {
	head factor.VarID
	w    factor.WeightID
	sem  factor.Semantics
	gnds []*modelGnd
}

// model is the independent nested representation the harness trusts: it
// never touches the flat layout, so a bug that corrupts both the patched
// pools and the synthesized Group view cannot hide from it.
type model struct {
	evidence []bool
	evValue  []bool
	weights  []float64
	groups   []*modelGroup
}

func (m *model) clone() *model {
	c := &model{
		evidence: append([]bool(nil), m.evidence...),
		evValue:  append([]bool(nil), m.evValue...),
		weights:  append([]float64(nil), m.weights...),
	}
	for _, gr := range m.groups {
		ng := &modelGroup{head: gr.head, w: gr.w, sem: gr.sem}
		for _, gnd := range gr.gnds {
			ng.gnds = append(ng.gnds, &modelGnd{
				lits:   append([]factor.Literal(nil), gnd.lits...),
				live:   gnd.live,
				flatID: gnd.flatID,
			})
		}
		c.groups = append(c.groups, ng)
	}
	return c
}

// build rebuilds a compact reference graph from the model's live state.
func (m *model) build(t testing.TB) *factor.Graph {
	t.Helper()
	b := factor.NewBuilder()
	for v := range m.evidence {
		if m.evidence[v] {
			b.AddEvidenceVar(m.evValue[v])
		} else {
			b.AddVar()
		}
	}
	for _, w := range m.weights {
		b.AddWeight(w)
	}
	for _, gr := range m.groups {
		var gnds []factor.Grounding
		for _, gnd := range gr.gnds {
			if gnd.live {
				gnds = append(gnds, factor.Grounding{Lits: append([]factor.Literal(nil), gnd.lits...)})
			}
		}
		b.AddGroup(gr.head, gr.w, gr.sem, gnds)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("reference rebuild failed: %v", err)
	}
	return g
}

func (m *model) liveRefs() (out [][2]int) {
	for gi, gr := range m.groups {
		for ni, gnd := range gr.gnds {
			if gnd.live {
				out = append(out, [2]int{gi, ni})
			}
		}
	}
	return out
}

var allSems = []factor.Semantics{factor.Linear, factor.Logical, factor.Ratio}

// seedModel builds the starting graph and its model, and stamps the
// initial flat ids (Build assigns them sequentially in group order). A
// big model has a few hundred rows in each overflow table.
func seedModel(rng *rand.Rand, t testing.TB, big bool) (*model, *factor.Graph) {
	m := &model{}
	nVars := 8 + rng.Intn(8)
	if big {
		nVars = 70 + rng.Intn(60)
	}
	for i := 0; i < nVars; i++ {
		ev := rng.Intn(5) == 0
		m.evidence = append(m.evidence, ev)
		m.evValue = append(m.evValue, ev && rng.Intn(2) == 0)
	}
	nW := 2 + rng.Intn(4)
	for i := 0; i < nW; i++ {
		m.weights = append(m.weights, rng.Float64()*2-1)
	}
	nG := 4 + rng.Intn(8)
	if big {
		nG = 40 + rng.Intn(60)
	}
	for gi := 0; gi < nG; gi++ {
		gr := &modelGroup{
			head: factor.VarID(rng.Intn(nVars)),
			w:    factor.WeightID(rng.Intn(nW)),
			sem:  allSems[rng.Intn(3)],
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			gr.gnds = append(gr.gnds, &modelGnd{lits: randLits(rng, nVars), live: true})
		}
		m.groups = append(m.groups, gr)
	}
	var id int32
	for _, gr := range m.groups {
		for _, gnd := range gr.gnds {
			gnd.flatID = id
			id++
		}
	}
	return m, m.build(t)
}

func randLits(rng *rand.Rand, nVars int) []factor.Literal {
	var lits []factor.Literal
	for l := 0; l < 1+rng.Intn(3); l++ {
		lits = append(lits, factor.Literal{
			Var: factor.VarID(rng.Intn(nVars)),
			Neg: rng.Intn(3) == 0,
		})
	}
	return lits
}

// mutateStep applies 1..4 random update operations to both the patch and
// the model.
func mutateStep(rng *rand.Rand, p *factor.Patch, m *model) {
	ops := 1 + rng.Intn(4)
	for o := 0; o < ops; o++ {
		switch rng.Intn(6) {
		case 0: // new variable (sometimes evidence)
			v := p.AddVar()
			m.evidence = append(m.evidence, false)
			m.evValue = append(m.evValue, false)
			if rng.Intn(3) == 0 {
				val := rng.Intn(2) == 0
				p.SetEvidence(v, true, val)
				m.evidence[v] = true
				m.evValue[v] = val
			}
		case 1: // new weight
			val := rng.Float64()*2 - 1
			p.AddWeight(val)
			m.weights = append(m.weights, val)
		case 2: // new group with groundings (a new rule's ΔF)
			head := factor.VarID(rng.Intn(len(m.evidence)))
			w := factor.WeightID(rng.Intn(len(m.weights)))
			sem := allSems[rng.Intn(3)]
			gi := p.AddGroup(head, w, sem)
			gr := &modelGroup{head: head, w: w, sem: sem}
			m.groups = append(m.groups, gr)
			if gi != len(m.groups)-1 {
				panic(fmt.Sprintf("group index drift: patch %d model %d", gi, len(m.groups)-1))
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				lits := randLits(rng, len(m.evidence))
				id := p.AddGrounding(gi, lits)
				gr.gnds = append(gr.gnds, &modelGnd{lits: lits, live: true, flatID: id})
			}
		case 3: // new grounding in an existing group (modified ΔF)
			gi := rng.Intn(len(m.groups))
			lits := randLits(rng, len(m.evidence))
			id := p.AddGrounding(gi, lits)
			m.groups[gi].gnds = append(m.groups[gi].gnds, &modelGnd{lits: lits, live: true, flatID: id})
		case 4: // remove a live grounding (retracted derivation)
			refs := m.liveRefs()
			if len(refs) == 0 {
				continue
			}
			ref := refs[rng.Intn(len(refs))]
			gnd := m.groups[ref[0]].gnds[ref[1]]
			p.RemoveGrounding(gnd.flatID)
			gnd.live = false
		case 5: // supervision change on an existing variable
			v := factor.VarID(rng.Intn(len(m.evidence)))
			if m.evidence[v] && rng.Intn(2) == 0 {
				p.SetEvidence(v, false, false)
				m.evidence[v] = false
			} else {
				val := rng.Intn(2) == 0
				p.SetEvidence(v, true, val)
				m.evidence[v] = true
				m.evValue[v] = val
			}
		}
	}
}

// retained is a clone of a patched graph as it looked before the next
// patch: its model, and the adjacency and blanket of every variable read
// off the graph it was cloned from.
type retained struct {
	g    *factor.Graph
	m    *model
	adj  [][]int32
	nbrs [][]factor.VarID
}

func retain(g *factor.Graph, m *model) retained {
	r := retained{g: g.Clone(), m: m.clone()}
	for v := 0; v < g.NumVars(); v++ {
		r.adj = append(r.adj, g.AdjacentGroups(factor.VarID(v)))
		var nb []factor.VarID
		g.Neighbors(factor.VarID(v), func(u factor.VarID) { nb = append(nb, u) })
		r.nbrs = append(r.nbrs, nb)
	}
	return r
}

// TestPatchDifferential is the headline harness: 8 seeds × 30 steps = 240
// randomized update steps, each asserting patched ≡ rebuilt, plus clone
// preservation — the clone taken before each patch after it, every clone
// after the last — and periodic fixed-seed marginal agreement.
func TestPatchDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, g := seedModel(rng, t, seed > 4)
			var clones []retained
			for step := 0; step < 30; step++ {
				before := retain(g, m)
				clones = append(clones, before)

				p := factor.NewPatch(g)
				mutateStep(rng, p, m)
				if ng := p.Apply(); ng != g {
					t.Fatalf("seed %d step %d: Apply returned another graph than the one patched", seed, step)
				}

				ref := m.build(t)
				if diffs := factor.DiffGraphs(g, ref, 4, seed*1000+int64(step)); len(diffs) > 0 {
					t.Fatalf("seed %d step %d: patched != rebuilt:\n%s", seed, step, joinLines(diffs))
				}
				// The clone taken before the patch still presents the old
				// distribution.
				if diffs := factor.DiffGraphs(before.g, before.m.build(t), 2, seed*2000+int64(step)); len(diffs) > 0 {
					t.Fatalf("seed %d step %d: patch changed the clone taken before it:\n%s", seed, step, joinLines(diffs))
				}
				// NewBuilderFrom over the patched graph must compact to the
				// same distribution (the synthesized nested view is what the
				// rebuild path and learn.freeCopy consume).
				compact := factor.NewBuilderFrom(g).MustBuild()
				if diffs := factor.DiffGraphs(g, compact, 2, seed*3000+int64(step)); len(diffs) > 0 {
					t.Fatalf("seed %d step %d: patched != NewBuilderFrom compaction:\n%s", seed, step, joinLines(diffs))
				}

				if step%10 == 9 {
					mp := gibbs.New(g, seed+99).Marginals(20, 400)
					mr := gibbs.New(ref, seed+99).Marginals(20, 400)
					for v := range mp {
						if math.Abs(mp[v]-mr[v]) > 0.02 {
							t.Fatalf("seed %d step %d var %d: fixed-seed marginal %v vs %v",
								seed, step, v, mp[v], mr[v])
						}
					}
				}
			}
			if frag := g.Fragmentation(); frag <= 0 {
				t.Fatalf("seed %d: expected fragmentation after 30 patch steps, got %v", seed, frag)
			}
			// Every clone, the step-0 one included, is what its graph was
			// before the patches after it.
			for step, r := range clones {
				if diffs := factor.DiffGraphs(r.g, r.m.build(t), 2, seed*4000+int64(step)); len(diffs) > 0 {
					t.Fatalf("seed %d: the clone of step %d changed under later patches:\n%s", seed, step, joinLines(diffs))
				}
				now := retain(r.g, r.m)
				if !reflect.DeepEqual(now.adj, r.adj) || !reflect.DeepEqual(now.nbrs, r.nbrs) {
					t.Fatalf("seed %d: AdjacentGroups/Neighbors of the step-%d clone differ from its graph's", seed, step)
				}
			}
		})
	}
}

func joinLines(xs []string) string {
	out := ""
	for _, x := range xs {
		out += "  " + x + "\n"
	}
	return out
}

// TestPatchBasics pins the small patch invariants the harness relies on.
func TestPatchBasics(t *testing.T) {
	b := factor.NewBuilder()
	v0 := b.AddVar()
	v1 := b.AddVar()
	w := b.AddWeight(0.5)
	b.AddGroup(v0, w, factor.Linear,
		[]factor.Grounding{{Lits: []factor.Literal{{Var: v1}}}})
	g := b.MustBuild()
	base := g.Clone()

	p := factor.NewPatch(g)
	v2 := p.AddVar()
	w2 := p.AddWeight(-1)
	gi := p.AddGroup(v2, w2, factor.Ratio)
	id := p.AddGrounding(gi, []factor.Literal{{Var: v0}, {Var: v1, Neg: true}})
	if ng := p.Apply(); ng != g {
		t.Fatal("Apply returned another graph than the one patched")
	}

	if !g.Patched() || base.Patched() {
		t.Fatal("Patched flags wrong")
	}
	if g.NumVars() != 3 || g.NumGroups() != 2 || g.NumWeights() != 2 {
		t.Fatalf("patched dims: vars=%d groups=%d weights=%d", g.NumVars(), g.NumGroups(), g.NumWeights())
	}
	if base.NumVars() != 2 || base.NumGroups() != 1 || base.NumGroundings() != 1 {
		t.Fatalf("clone dims mutated: vars=%d groups=%d gnds=%d", base.NumVars(), base.NumGroups(), base.NumGroundings())
	}
	if g.NumGroundings() != 2 {
		t.Fatalf("patched NumGroundings = %d, want 2", g.NumGroundings())
	}
	// Adjacency picked up the new group for the old vars.
	if adj := g.AdjacentGroups(v0); len(adj) != 2 {
		t.Fatalf("v0 adjacency after patch: %v", adj)
	}
	if adj := base.AdjacentGroups(v0); len(adj) != 1 {
		t.Fatalf("clone's v0 adjacency grew: %v", adj)
	}

	// Tombstone the patched-in grounding on a second patch.
	before := g.Clone()
	p2 := factor.NewPatch(g)
	p2.RemoveGrounding(id)
	p2.Apply()
	if g.NumGroundings() != 1 {
		t.Fatalf("after tombstone NumGroundings = %d, want 1", g.NumGroundings())
	}
	if before.NumGroundings() != 2 {
		t.Fatalf("tombstone leaked into the clone taken before it: %d", before.NumGroundings())
	}
	if g.Fragmentation() <= 0 {
		t.Fatal("fragmentation not reported")
	}
	// The dead group contributes zero energy, like an empty group.
	assign := []bool{true, true, true}
	e2 := g.Energy(assign)
	eBase := base.Energy(assign[:2])
	if math.Abs(e2-eBase) > 1e-12 {
		t.Fatalf("energy after tombstone %v, want base %v", e2, eBase)
	}
}

// TestPatchLargeGroups grows groups past the size at which a patch stops
// scanning a group's variable list and indexes it: a pre-existing group
// and a new one each take groundings over most of a 120-variable graph,
// across patches and within one, repeating variables. The patched graph
// must equal its rebuild, and no adjacency or blanket row may list a
// group or a neighbor twice.
func TestPatchLargeGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m, g := seedModel(rng, t, true)
	for len(m.evidence) < 120 {
		m.evidence, m.evValue = append(m.evidence, false), append(m.evValue, false)
	}
	g = m.build(t)
	for step := 0; step < 4; step++ {
		p := factor.NewPatch(g)
		head := factor.VarID(rng.Intn(len(m.evidence)))
		gi := p.AddGroup(head, 0, factor.Ratio)
		m.groups = append(m.groups, &modelGroup{head: head, w: 0, sem: factor.Ratio})
		for _, target := range []int{0, gi} {
			for k := 0; k < 40; k++ {
				lits := randLits(rng, len(m.evidence))
				id := p.AddGrounding(target, lits)
				m.groups[target].gnds = append(m.groups[target].gnds, &modelGnd{lits: lits, live: true, flatID: id})
			}
		}
		g = p.Apply()
		if diffs := factor.DiffGraphs(g, m.build(t), 2, int64(step)); len(diffs) > 0 {
			t.Fatalf("step %d: patched != rebuilt:\n%s", step, joinLines(diffs))
		}
		for v := 0; v < g.NumVars(); v++ {
			adj := g.AdjacentGroups(factor.VarID(v))
			seen := map[factor.VarID]bool{}
			g.Neighbors(factor.VarID(v), func(u factor.VarID) {
				if seen[u] {
					t.Fatalf("step %d: var %d lists neighbor %d twice", step, v, u)
				}
				seen[u] = true
			})
			for i := range adj {
				for j := i + 1; j < len(adj); j++ {
					if adj[i] == adj[j] {
						t.Fatalf("step %d: var %d lists group %d twice", step, v, adj[i])
					}
				}
			}
		}
	}
	if n := len(m.groups[0].gnds); n < 160 {
		t.Fatalf("group 0 holds %d groundings", n)
	}
}
