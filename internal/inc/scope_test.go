package inc

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// scopeFixture is twelve independent two-variable components (every
// fourth one anchored on an evidence variable), materialized, and an
// update that appends a variable pair to component 2 and moves the
// weights of components 0 and 5: three components changed, nine not.
func scopeFixture(t testing.TB) (e *Engine, newG *factor.Graph, cs ChangeSet, seeds []factor.VarID) {
	t.Helper()
	b := factor.NewBuilder()
	anchor := b.AddEvidenceVar(true)
	var heads []factor.VarID
	for c := 0; c < 12; c++ {
		x, y := b.AddVar(), b.AddVar() // (every fourth y stays unused: the pinned chains count it)
		if c%4 == 3 {
			y = b.AddEvidenceVar(c%8 == 3)
		}
		w := b.AddWeight(0.3 + 0.1*float64(c))
		b.AddGroup(x, w, factor.Ratio, []factor.Grounding{{Lits: []factor.Literal{{Var: y}}}})
		bw := b.AddWeight(0.4 - 0.05*float64(c))
		b.AddGroup(x, bw, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
		heads = append(heads, x)
	}
	g := b.MustBuild()
	e, err := NewEngine(g, Options{MaterializationSamples: 700, KeepSamples: 200, Burnin: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := factor.NewPatch(g)
	nv := p.AddVar()
	ne := p.AddVar()
	p.SetEvidence(ne, true, true)
	nw := p.AddWeight(0.9)
	gi := p.AddGroup(nv, nw, factor.Ratio)
	p.AddGrounding(gi, []factor.Literal{{Var: heads[2]}})
	p.AddGrounding(gi, []factor.Literal{{Var: ne}})
	newG = p.Apply()
	newG.SetWeight(newG.GroupWeight(0), -0.8)
	newG.SetWeight(newG.GroupWeight(10), 1.4)
	cs = ChangeSet{ChangedOld: []int32{0, 10}, ChangedNew: []int32{0, 10, int32(gi)}, NewFeatures: true}
	return e, newG, cs, []factor.VarID{nv, ne, heads[0], heads[5]}
}

func marginalHash(m []float64) string {
	h := fnv.New64a()
	for _, x := range m {
		var buf [8]byte
		u := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSamplingRunnersKeepTheirChains pins the sampling runner, one
// acceptance test per connected component, bit for bit across the buffer
// reuse: the hash and counters were recorded from the per-proposal-allocating
// implementation on this fixture (fresh proposal buffers, a full copy of the
// hybrid world per proposal).
//
// They were recorded over the store NewEngine collected then — 700
// consecutive sweeps of one Gibbs chain. NewEngine now draws exact
// independent worlds (this fixture's components all enumerate), a different
// store; the runner did not change, so it is held to the recorded values on
// the store they were recorded on, after the 201 worlds the global runner
// that ran first then spent.
func TestSamplingRunnersKeepTheirChains(t *testing.T) {
	e, newG, cs, _ := scopeFixture(t)
	if n := e.Solved(); n.Swept != 0 || n.Closed+n.Enumerated != 24 {
		t.Fatalf("the fixture's materialization solved %+v, want its 24 free variables exactly", n)
	}
	e.materialize(nil) // the deferred step runs first, so the store written here is not drawn over
	chain := gibbs.New(e.OldGraph(), 11)
	chain.RandomizeState()
	e.store = chain.CollectSamples(30, 700)
	e.store.Skip(201)
	res := SamplingInferCtx(nil, e.OldGraph(), newG, e.Store(), cs, ComponentGroups(newG, nil), nil, 200, 11+31)
	if got := marginalHash(res.Marginals); got != "378989c9d05ba49e" || res.AcceptanceRate != 0.8616666666666667 || res.SamplesUsed != 600 || e.Store().Remaining() != 299 {
		t.Fatalf("decomposed chain moved: marginals %s, acceptance %v over %d tests, %d worlds left", got, res.AcceptanceRate, res.SamplesUsed, e.Store().Remaining())
	}
}

// TestScopedInferenceCoversItsComponents: the dirty set of an update is
// the union of the components of its seeds; the sampling runner — one test
// per component, and one global test — and the variational runner, handed
// that scope, estimate its variables — and nothing else: the result is as
// long as the scope — as the whole-graph run does; and a scoped sampling run
// spends only its share of the worlds it replays.
func TestScopedInferenceCoversItsComponents(t *testing.T) {
	for _, name := range []string{"sampling", "one-block", "variational"} {
		t.Run(name, func(t *testing.T) {
			e, newG, cs, seeds := scopeFixture(t)
			dirty := e.Scope(newG, seeds, nil)
			scope := dirty.Sorted()
			// Components 0, 2 (with its appended pair) and 5, two variables
			// each, the two new ones, and the evidence anchor every bias
			// group hangs on — a member as their boundary, a bridge to none
			// of the nine other components.
			if len(scope) != 9 || !dirty.Has(seeds[0]) || !dirty.Has(factor.VarID(0)) || dirty.Has(factor.VarID(3)) {
				t.Fatalf("scope = %v", scope)
			}
			run := func(e *Engine, scope []factor.VarID) *Result {
				switch name {
				case "variational":
					return e.inferAs(nil, newG, cs, StrategyVariational, scope, nil)
				case "one-block":
					return e.inferAs(nil, newG, cs, StrategySampling, scope, nil)
				}
				return e.inferAs(nil, newG, cs, StrategySampling, scope, ComponentGroups(newG, scope))
			}
			left := e.Store().Remaining()
			got := run(e, scope)
			if name != "variational" {
				// 200 worlds replayed, 9 of 30 columns read: ⌈200·9/30⌉.
				if spent := left - e.Store().Remaining(); spent != 60 || got.Strategy != StrategySampling {
					t.Fatalf("scoped %v run spent %d worlds, want a sampling run spending 60", got.Strategy, spent)
				}
			}
			e2, _, _, _ := scopeFixture(t)
			want := run(e2, nil)
			if len(got.Marginals) != len(scope) || len(want.Marginals) != newG.NumVars() {
				t.Fatalf("%d marginals for a scope of %d, %d for a graph of %d", len(got.Marginals), len(scope), len(want.Marginals), newG.NumVars())
			}
			for i, v := range scope {
				if math.Abs(got.Marginals[i]-want.Marginals[v]) > 0.1 {
					t.Fatalf("variable %d: %v scoped, %v on the whole graph", v, got.Marginals[i], want.Marginals[v])
				}
			}
		})
	}
}

// TestScopeFollowsVariationalEdges: an edge of the approximation keeps
// its endpoints in one scope even when the graph no longer links them.
func TestScopeFollowsVariationalEdges(t *testing.T) {
	e, newG, _, _ := scopeFixture(t)
	a, b := factor.VarID(1), factor.VarID(20) // heads of components 0 and 9
	if e.Scope(newG, []factor.VarID{a}, nil).Has(b) {
		t.Fatal("unrelated components share a scope")
	}
	e.materialize(nil) // fit the approximation the edge is added to
	e.vm.Edges = append(e.vm.Edges, PairFactor{I: b, J: a, W: 0.5})
	if r := e.Scope(newG, []factor.VarID{a}, nil); !r.Has(b) || len(r.Vars) != 5 {
		t.Fatalf("scope across the edge = %v", r.Sorted())
	}
}
