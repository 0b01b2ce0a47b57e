package inc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// chainGraph builds a chain v0—v1—…—v(n-1) with pairwise couplings of
// weight w (group: head=v(i), body=v(i+1), linear), plus a weak positive
// bias on v0 so marginals are asymmetric.
func chainGraph(n int, w float64) *factor.Graph {
	b := factor.NewBuilder()
	anchor := b.AddEvidenceVar(true)
	vars := make([]factor.VarID, n)
	for i := range vars {
		vars[i] = b.AddVar()
	}
	cw := b.AddWeight(w)
	for i := 0; i+1 < n; i++ {
		b.AddGroup(vars[i], cw, factor.Linear,
			[]factor.Grounding{{Lits: []factor.Literal{{Var: vars[i+1]}}}})
	}
	bias := b.AddWeight(0.7)
	b.AddGroup(vars[0], bias, factor.Linear,
		[]factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
	return b.MustBuild()
}

// deriveModes are the two ways to produce the post-update graph the
// incremental strategies consume: a full rebuild through factor.Builder
// (the historical path) and an O(Δ) in-place factor.Patch. The strategies
// must behave identically on either derivation, so the affected tests run
// under both as subtests.
var deriveModes = []string{"rebuild", "patch"}

// graphEditor abstracts the mutation surface the two derivations share.
type graphEditor interface {
	AddVar() factor.VarID
	AddWeight(v float64) factor.WeightID
	AddGroup(head factor.VarID, w factor.WeightID, sem factor.Semantics, gnds []factor.Grounding) int
}

type builderEditor struct{ b *factor.Builder }

func (e builderEditor) AddVar() factor.VarID                { return e.b.AddVar() }
func (e builderEditor) AddWeight(v float64) factor.WeightID { return e.b.AddWeight(v) }
func (e builderEditor) AddGroup(head factor.VarID, w factor.WeightID, sem factor.Semantics, gnds []factor.Grounding) int {
	return e.b.AddGroup(head, w, sem, gnds)
}

type patchEditor struct{ p *factor.Patch }

func (e patchEditor) AddVar() factor.VarID                { return e.p.AddVar() }
func (e patchEditor) AddWeight(v float64) factor.WeightID { return e.p.AddWeight(v) }
func (e patchEditor) AddGroup(head factor.VarID, w factor.WeightID, sem factor.Semantics, gnds []factor.Grounding) int {
	gi := e.p.AddGroup(head, w, sem)
	for _, gnd := range gnds {
		e.p.AddGrounding(gi, gnd.Lits)
	}
	return gi
}

// rebuildOrPatch derives a new graph from g in the given mode, applying
// edit (when non-nil) through the mode's mutation surface.
func rebuildOrPatch(t *testing.T, g *factor.Graph, mode string, edit func(graphEditor)) *factor.Graph {
	t.Helper()
	switch mode {
	case "rebuild":
		nb := factor.NewBuilderFrom(g)
		if edit != nil {
			edit(builderEditor{nb})
		}
		return nb.MustBuild()
	case "patch":
		p := factor.NewPatch(g.Clone())
		if edit != nil {
			edit(patchEditor{p})
		}
		return p.Apply()
	default:
		t.Fatalf("unknown derivation mode %q", mode)
		return nil
	}
}

func maxAbsDiff(a, b []float64, skipEvidence *factor.Graph) float64 {
	worst := 0.0
	for i := range a {
		if skipEvidence != nil && skipEvidence.IsEvidence(factor.VarID(i)) {
			continue
		}
		d := math.Abs(a[i] - b[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestStrawmanExactMatchesEnumeration(t *testing.T) {
	g := chainGraph(5, 0.8)
	s, err := MaterializeStrawman(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumWorlds() != 32 {
		t.Fatalf("NumWorlds = %d, want 32", s.NumWorlds())
	}
	exact := s.ExactMarginals(nil, nil, nil)
	// Long-run Gibbs should agree.
	m := gibbs.New(g, 3).Marginals(200, 20000)
	if d := maxAbsDiff(exact, m, g); d > 0.02 {
		t.Fatalf("strawman exact vs gibbs diff %v", d)
	}
}

func TestStrawmanInferTracksChangedDistribution(t *testing.T) {
	for _, mode := range deriveModes {
		t.Run(mode, func(t *testing.T) {
			g := chainGraph(5, 0.8)
			s, err := MaterializeStrawman(g)
			if err != nil {
				t.Fatal(err)
			}
			// New graph: same structure but the bias weight flipped negative
			// (a changed factor). Group 4 is the bias group.
			newG := rebuildOrPatch(t, g, mode, nil)
			biasGroup := int32(newG.NumGroups() - 1)
			newG.SetWeight(newG.Group(int(biasGroup)).Weight, -0.7)

			changed := []int32{biasGroup}
			exact := s.ExactMarginals(newG, changed, changed)
			got := s.Infer(newG, changed, changed, 200, 20000, 7)
			if d := maxAbsDiff(exact, got, g); d > 0.03 {
				t.Fatalf("strawman incremental gibbs vs exact diff %v", d)
			}
			// And the change must actually lower P(v1=first chain var).
			orig := s.ExactMarginals(nil, nil, nil)
			if !(exact[1] < orig[1]) {
				t.Fatalf("bias flip did not lower marginal: %v -> %v", orig[1], exact[1])
			}
		})
	}
}

func TestStrawmanInfeasibleBeyondCap(t *testing.T) {
	b := factor.NewBuilder()
	for i := 0; i < MaxStrawmanVars+1; i++ {
		b.AddVar()
	}
	if _, err := MaterializeStrawman(b.MustBuild()); err == nil {
		t.Fatal("oversized strawman accepted")
	}
}

func TestSamplingNoChangeFullAcceptance(t *testing.T) {
	g := chainGraph(6, 0.6)
	sampler := gibbs.New(g, 11)
	store := sampler.CollectSamples(100, 2000)
	res := SamplingInferCtx(nil, g, g, store, ChangeSet{}, nil, nil, 1500, 12)
	if res.AcceptanceRate != 1 {
		t.Fatalf("acceptance = %v, want 1 for unchanged distribution", res.AcceptanceRate)
	}
	truth := MaterializeStrawmanMust(t, g).ExactMarginals(nil, nil, nil)
	if d := maxAbsDiff(res.Marginals, truth, g); d > 0.05 {
		t.Fatalf("sampling marginals diff %v from exact", d)
	}
}

func MaterializeStrawmanMust(t *testing.T, g *factor.Graph) *Strawman {
	t.Helper()
	s, err := MaterializeStrawman(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSamplingTracksChangedWeights(t *testing.T) {
	for _, mode := range deriveModes {
		t.Run(mode, func(t *testing.T) {
			g := chainGraph(6, 0.6)
			store := gibbs.New(g, 13).CollectSamples(100, 20000)
			// New graph: the shared coupling weight flipped, changing all five
			// coupling groups (indexes 0..4).
			newG := rebuildOrPatch(t, g, mode, nil)
			newG.SetWeight(newG.Group(0).Weight, -0.6)
			changed := []int32{0, 1, 2, 3, 4}
			cs := ChangeSet{ChangedOld: changed, ChangedNew: changed}
			res := SamplingInferCtx(nil, g, newG, store, cs, nil, nil, 19000, 14)
			if res.AcceptanceRate >= 1 {
				t.Fatalf("acceptance = %v, want < 1 for changed distribution", res.AcceptanceRate)
			}
			truth := MaterializeStrawmanMust(t, g).ExactMarginals(newG, changed, changed)
			if d := maxAbsDiff(res.Marginals, truth, g); d > 0.06 {
				t.Fatalf("sampling marginals diff %v from exact", d)
			}
		})
	}
}

func TestSamplingHandlesNewVariablesAndEvidence(t *testing.T) {
	for _, mode := range deriveModes {
		t.Run(mode, func(t *testing.T) {
			g := chainGraph(4, 0.6)
			store := gibbs.New(g, 15).CollectSamples(100, 3000)
			// Extend: new variable coupled to the chain tail; evidence set on v2.
			var nv factor.VarID
			var gi int
			tail := factor.VarID(4) // last chain var (anchor=0, chain=1..4)
			newG := rebuildOrPatch(t, g, mode, func(e graphEditor) {
				nv = e.AddVar()
				w := e.AddWeight(1.5)
				gi = e.AddGroup(nv, w, factor.Linear,
					[]factor.Grounding{{Lits: []factor.Literal{{Var: tail}}}})
			})
			newG.SetEvidence(2, true, true)
			cs := ChangeSet{
				ChangedNew:      []int32{int32(gi)},
				EvidenceChanged: []factor.VarID{2},
			}
			res := SamplingInferCtx(nil, g, newG, store, cs, nil, nil, 2500, 16)
			if res.Marginals[2] != 1 {
				t.Fatalf("evidence var marginal = %v, want 1", res.Marginals[2])
			}
			if g.IsEvidence(2) {
				t.Fatal("evidence change leaked into the pre-update graph")
			}
			truth := MaterializeStrawmanMust(t, newG).ExactMarginals(nil, nil, nil)
			if d := math.Abs(res.Marginals[nv] - truth[nv]); d > 0.12 {
				t.Fatalf("new-var marginal %v vs exact %v", res.Marginals[nv], truth[nv])
			}
		})
	}
}

func TestSamplingExhaustion(t *testing.T) {
	g := chainGraph(4, 0.5)
	store := gibbs.New(g, 17).CollectSamples(10, 50)
	res := SamplingInferCtx(nil, g, g, store, ChangeSet{}, nil, nil, 500, 18)
	if !res.FellBack {
		t.Fatal("store of 50 samples should exhaust before 500 keeps")
	}
	if store.Remaining() != 0 {
		t.Fatalf("exhausted with %d of 50 samples left", store.Remaining())
	}
}

// TestEstimateAcceptanceRateClampsProbe is the NaN regression test: a
// probe <= 0 used to skip the scoring loop entirely and return 0/0. The
// clamp promised by the doc comment must make it behave as probe = 1.
func TestEstimateAcceptanceRateClampsProbe(t *testing.T) {
	for _, mode := range deriveModes {
		t.Run(mode, func(t *testing.T) {
			g := chainGraph(5, 0.5)
			store := gibbs.New(g, 41).CollectSamples(50, 200)
			newG := rebuildOrPatch(t, g, mode, nil)
			for _, probe := range []int{0, -3} {
				r := EstimateAcceptanceRate(g, newG, store, ChangeSet{}, probe, 42)
				if math.IsNaN(r) {
					t.Fatalf("probe=%d returned NaN", probe)
				}
				if r != 1 {
					t.Fatalf("probe=%d on unchanged distribution = %v, want 1", probe, r)
				}
			}
			// Empty store still reports 0 (no samples to replay at all).
			if r := EstimateAcceptanceRate(g, newG, gibbs.NewStore(g.NumVars()), ChangeSet{}, 0, 43); r != 0 {
				t.Fatalf("empty store estimate = %v, want 0", r)
			}
		})
	}
}

// TestSamplingInferEdgeCases covers the runner's ends: keep <= 0 counts
// as 1, a store of one world yields that world as the one observation
// instead of the all-zero marginal vector Means() produces over none, and an
// empty store reports exhaustion with marginals as wide as the graph.
func TestSamplingInferEdgeCases(t *testing.T) {
	for _, mode := range deriveModes {
		t.Run(mode, func(t *testing.T) {
			g := chainGraph(4, 0.9) // strong coupling: true-heavy worlds
			newG := rebuildOrPatch(t, g, mode, nil)

			makeStore := func(n int) *gibbs.Store {
				if n == 0 {
					return gibbs.NewStore(g.NumVars())
				}
				return gibbs.New(g, 45).CollectSamples(200, n)
			}
			// observedOne requires the marginals to be the store's first world:
			// one observation of it, not all zero.
			observedOne := func(label string, res *Result, store *gibbs.Store) {
				t.Helper()
				any := false
				for v, bit := range store.Get(0, nil) {
					want := 0.0
					if bit {
						want = 1
					}
					if res.Marginals[v] != want {
						t.Fatalf("%s: marginal %d is %v, the one stored world holds %v", label, v, res.Marginals[v], bit)
					}
					any = any || bit
				}
				if !any {
					t.Fatalf("%s: marginals all zero — the world was lost", label)
				}
			}

			// store.Len() == 0: nothing to replay.
			res := SamplingInferCtx(nil, g, newG, makeStore(0), ChangeSet{}, nil, nil, 1, 46)
			if !res.FellBack {
				t.Fatal("empty store: not reported exhausted")
			}
			if len(res.Marginals) != newG.NumVars() {
				t.Fatalf("empty store marginal width %d", len(res.Marginals))
			}

			// store.Len() == 1 with keep in {0, 1}: the single world is
			// replayed and observed.
			for _, keep := range []int{0, 1} {
				store := makeStore(1)
				res := SamplingInferCtx(nil, g, newG, store, ChangeSet{}, nil, nil, keep, 47)
				if res.FellBack || store.Remaining() != 0 {
					t.Fatalf("keep=%d single-world store: exhausted=%v, %d left", keep, res.FellBack, store.Remaining())
				}
				observedOne(fmt.Sprintf("keep=%d single-world store", keep), res, store)
			}

			// keep <= 0 with a full store behaves as keep = 1.
			store := makeStore(50)
			res = SamplingInferCtx(nil, g, newG, store, ChangeSet{}, nil, nil, 0, 48)
			if res.FellBack || store.Remaining() != 49 {
				t.Fatalf("keep=0 replayed %d worlds (exhausted=%v), want 1", 50-store.Remaining(), res.FellBack)
			}
			observedOne("keep=0", res, store)
		})
	}
}

func TestEstimateAcceptanceRate(t *testing.T) {
	for _, mode := range deriveModes {
		t.Run(mode, func(t *testing.T) {
			g := chainGraph(6, 0.6)
			store := gibbs.New(g, 19).CollectSamples(100, 1000)
			// Unchanged: rate 1.
			if r := EstimateAcceptanceRate(g, g, store, ChangeSet{}, 100, 20); r != 1 {
				t.Fatalf("unchanged estimate = %v, want 1", r)
			}
			// Heavily changed: rate < 1.
			newG := rebuildOrPatch(t, g, mode, nil)
			newG.SetWeight(newG.Group(0).Weight, -3)
			changed := []int32{0, 1, 2, 3, 4}
			r := EstimateAcceptanceRate(g, newG, store, ChangeSet{ChangedOld: changed, ChangedNew: changed}, 200, 21)
			if r >= 0.95 {
				t.Fatalf("heavy change estimate = %v, want < 0.95", r)
			}
		})
	}
}

func TestVariationalApproximatesMarginals(t *testing.T) {
	g := chainGraph(6, 0.9)
	store := gibbs.New(g, 23).CollectSamples(200, 3000)
	vm, err := MaterializeVariational(g, store, VariationalOptions{Lambda: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Edges) == 0 {
		t.Fatal("variational produced no edges for a correlated chain")
	}
	got := VariationalInfer(vm, nil, g, nil, 200, 5000, 24)
	truth := MaterializeStrawmanMust(t, g).ExactMarginals(nil, nil, nil)
	if d := maxAbsDiff(got, truth, g); d > 0.15 {
		t.Fatalf("variational marginals diff %v from exact (edges=%d)", d, len(vm.Edges))
	}
}

func TestVariationalLambdaControlsSparsity(t *testing.T) {
	g := chainGraph(10, 0.8)
	store := gibbs.New(g, 25).CollectSamples(200, 2000)
	prev := math.MaxInt
	for _, lambda := range []float64{0.001, 0.1, 10} {
		vm, err := MaterializeVariational(g, store, VariationalOptions{Lambda: lambda})
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		if len(vm.Edges) > prev {
			t.Fatalf("λ=%v: edges grew from %d to %d", lambda, prev, len(vm.Edges))
		}
		prev = len(vm.Edges)
	}
	if prev != 0 {
		t.Fatalf("λ=10 should prune (nearly) all edges of a weak chain, kept %d", prev)
	}
}

func TestVariationalRespectsAdjacency(t *testing.T) {
	// Two independent pairs: no cross-pair edges allowed.
	b := factor.NewBuilder()
	v0, v1, v2, v3 := b.AddVar(), b.AddVar(), b.AddVar(), b.AddVar()
	w := b.AddWeight(1.2)
	b.AddGroup(v0, w, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: v1}}}})
	b.AddGroup(v2, w, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: v3}}}})
	g := b.MustBuild()
	store := gibbs.New(g, 27).CollectSamples(100, 2000)
	vm, err := MaterializeVariational(g, store, VariationalOptions{Lambda: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range vm.Edges {
		same := (e.I < 2) == (e.J < 2)
		if !same {
			t.Fatalf("cross-component edge %v-%v", e.I, e.J)
		}
	}
}

func TestVariationalLargeComponentFallback(t *testing.T) {
	g := chainGraph(30, 0.7)
	store := gibbs.New(g, 29).CollectSamples(100, 1500)
	vm, err := MaterializeVariational(g, store, VariationalOptions{Lambda: 0.01, MaxDenseComponent: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Edges) == 0 {
		t.Fatal("threshold fallback produced no edges")
	}
	// Edges only between chain neighbors (adjacency pattern respected).
	for _, e := range vm.Edges {
		d := int(e.J) - int(e.I)
		if d < 0 {
			d = -d
		}
		if d != 1 {
			t.Fatalf("non-adjacent edge %v-%v in chain", e.I, e.J)
		}
	}
}

func TestEngineStrategyRules(t *testing.T) {
	g := chainGraph(5, 0.5)
	e, err := NewEngine(g, Options{MaterializationSamples: 200, KeepSamples: 100, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cs   ChangeSet
		want Strategy
	}{
		{"no change (A1)", ChangeSet{}, StrategySampling},
		{"evidence update (S rules)", ChangeSet{EvidenceChanged: []factor.VarID{1}}, StrategyVariational},
		{"new features (FE rules)", ChangeSet{ChangedNew: []int32{0}, NewFeatures: true}, StrategySampling},
		{"structure only (I rules)", ChangeSet{ChangedNew: []int32{0}}, StrategySampling},
	}
	for _, c := range cases {
		if got := e.ChooseStrategy(c.cs); got != c.want {
			t.Errorf("%s: strategy = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEngineLesionSwitches(t *testing.T) {
	g := chainGraph(5, 0.5)
	noSamp, _ := NewEngine(g, Options{MaterializationSamples: 100, Seed: 1, DisableSampling: true})
	if noSamp.ChooseStrategy(ChangeSet{}) != StrategyVariational {
		t.Fatal("DisableSampling ignored")
	}
	noVar, _ := NewEngine(g, Options{MaterializationSamples: 100, Seed: 1, DisableVariational: true})
	if noVar.ChooseStrategy(ChangeSet{EvidenceChanged: []factor.VarID{1}}) != StrategySampling {
		t.Fatal("DisableVariational ignored")
	}
	noWl, _ := NewEngine(g, Options{MaterializationSamples: 100, Seed: 1, IgnoreWorkload: true})
	if noWl.ChooseStrategy(ChangeSet{EvidenceChanged: []factor.VarID{1}}) != StrategySampling {
		t.Fatal("IgnoreWorkload ignored")
	}
}

// TestEngineInferUnchangedMatchesTruth: a chain of 30 is past the
// enumeration bound, so AutoInferCtx hands it to the optimizer, which
// samples the unchanged distribution off the store — within sampling error
// of a long Gibbs run.
func TestEngineInferUnchangedMatchesTruth(t *testing.T) {
	g := chainGraph(30, 0.7)
	e, err := NewEngine(g, Options{MaterializationSamples: 3000, KeepSamples: 2000, Burnin: 100, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	res := e.AutoInferCtx(nil, g, ChangeSet{}, nil, true)
	if res.Strategy != StrategySampling || res.FellBack || res.Solved.Swept != 30 {
		t.Fatalf("unchanged inference used %v (fellback=%v), solved %+v", res.Strategy, res.FellBack, res.Solved)
	}
	truth := gibbs.New(g, 34).Marginals(500, 50000)
	if d := maxAbsDiff(res.Marginals, truth, g); d > 0.05 {
		t.Fatalf("marginals diff %v", d)
	}
}

func TestEngineFallsBackOnExhaustion(t *testing.T) {
	g := chainGraph(30, 0.7)
	e, err := NewEngine(g, Options{MaterializationSamples: 50, KeepSamples: 500, Burnin: 20, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	res := e.AutoInferCtx(nil, g, ChangeSet{}, nil, true)
	if !res.FellBack || res.Strategy != StrategyVariational {
		t.Fatalf("expected variational fallback, got %v fellback=%v", res.Strategy, res.FellBack)
	}
	if len(res.Marginals) != g.NumVars() {
		t.Fatalf("marginals length %d", len(res.Marginals))
	}
}

func TestEngineMaterializeForBudget(t *testing.T) {
	g := chainGraph(5, 0.5)
	e, err := NewEngine(g, Options{MaterializationSamples: 10, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	n0 := e.Store().Len()
	n1 := e.MaterializeForBudget(20e6) // 20ms
	if n1 <= n0 {
		t.Fatalf("budget materialization added no samples: %d -> %d", n0, n1)
	}
}

func TestInferDecomposedUntouchedBlocksFree(t *testing.T) {
	for _, mode := range deriveModes {
		t.Run(mode, func(t *testing.T) {
			// Two chains, one component each. Change only the second chain's
			// factor; the first block adopts samples without acceptance testing.
			b := factor.NewBuilder()
			a1, a2 := b.AddVar(), b.AddVar()
			v1, v2 := b.AddVar(), b.AddVar()
			w1 := b.AddWeight(1.0)
			w2 := b.AddWeight(1.0)
			b.AddGroup(v1, w1, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: a1}}}})
			b.AddGroup(v2, w2, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: a2}}}})
			g := b.MustBuild()
			e, err := NewEngine(g, Options{MaterializationSamples: 4000, KeepSamples: 3000, Burnin: 100, Seed: 39})
			if err != nil {
				t.Fatal(err)
			}
			newG := rebuildOrPatch(t, g, mode, nil)
			newG.SetWeight(newG.Group(1).Weight, -1.0)
			cs := ChangeSet{ChangedOld: []int32{1}, ChangedNew: []int32{1}}
			groups := ComponentGroups(g, nil)
			want := []DecompGroup{{Inactive: []factor.VarID{a1, v1}}, {Inactive: []factor.VarID{a2, v2}}}
			if !reflect.DeepEqual(groups, want) {
				t.Fatalf("component groups = %+v, want %+v", groups, want)
			}
			res := SamplingInferCtx(nil, g, newG, e.Store(), cs, groups, nil, 3000, 39+31)
			truth := MaterializeStrawmanMust(t, g).ExactMarginals(newG, cs.ChangedOld, cs.ChangedNew)
			if d := maxAbsDiff(res.Marginals, truth, newG); d > 0.08 {
				t.Fatalf("decomposed marginals diff %v (truth %v, got %v)", d, truth, res.Marginals)
			}
		})
	}
}

func TestChangeSetHelpers(t *testing.T) {
	cs := ChangeSet{}
	if !cs.Empty() || cs.StructureChanged() {
		t.Fatal("empty ChangeSet misreported")
	}
	cs.ChangedNew = []int32{1}
	if cs.Empty() || !cs.StructureChanged() {
		t.Fatal("non-empty ChangeSet misreported")
	}
}

func TestStrategyString(t *testing.T) {
	if StrategySampling.String() != "sampling" ||
		StrategyVariational.String() != "variational" ||
		StrategyRerun.String() != "rerun" {
		t.Fatal("Strategy strings wrong")
	}
	if Strategy(7).String() != "Strategy(7)" {
		t.Fatal("unknown Strategy string wrong")
	}
}
