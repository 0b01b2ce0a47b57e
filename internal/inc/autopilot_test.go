package inc

import (
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// TestEstimateAcceptanceRateCursorInvariance pins the non-consuming
// contract of the probe: however many times the optimizer measures, the
// store's cursor — and therefore the number of proposals a subsequent
// sampling pass can draw — must not move. The old implementation probed
// via whole-store Get over already-consumed samples; the rewrite peeks
// the unconsumed window only.
func TestEstimateAcceptanceRateCursorInvariance(t *testing.T) {
	g := chainGraph(6, 0.6)
	store := gibbs.New(g, 19).CollectSamples(100, 200)

	// Consume a prefix so the unconsumed window is a strict suffix.
	if store.Remaining() < 50 {
		t.Fatal("store exhausted during setup")
	}
	store.Skip(50)
	before := store.Remaining()

	newG := factor.NewBuilderFrom(g).MustBuild()
	newG.SetWeight(newG.Group(0).Weight, -3)
	changed := []int32{0, 1, 2, 3, 4}
	cs := ChangeSet{ChangedOld: changed, ChangedNew: changed}
	for i := 0; i < 10; i++ {
		r := EstimateAcceptanceRate(g, newG, store, cs, 40, int64(100+i))
		if r < 0 || r > 1 {
			t.Fatalf("probe %d returned %v outside [0,1]", i, r)
		}
		if store.Remaining() != before {
			t.Fatalf("probe %d consumed the store: Remaining %d -> %d", i, before, store.Remaining())
		}
	}

	// A fully consumed store has nothing left to propose: the probe must
	// report 0 (the upfront form of the run-time exhaustion fallback),
	// not score consumed samples as if they were still available.
	store.Skip(store.Remaining())
	if r := EstimateAcceptanceRate(g, newG, store, cs, 40, 7); r != 0 {
		t.Fatalf("exhausted store probe = %v, want 0", r)
	}
	if store.Remaining() != 0 {
		t.Fatal("probe on exhausted store moved the cursor")
	}
}

// addBiasedVar appends one new variable with a single strong positive
// bias group (anchored on the evidence-true var 0 that chainGraph
// creates) and returns the new graph, the new var, and the new group's
// index.
func addBiasedVar(t *testing.T, g *factor.Graph, w float64) (*factor.Graph, factor.VarID, int32) {
	t.Helper()
	p := factor.NewPatch(g)
	v := p.AddVar()
	wid := p.AddWeight(w)
	gi := p.AddGroup(v, wid, factor.Linear)
	p.AddGrounding(gi, []factor.Literal{{Var: 0}})
	return p.Apply(), v, int32(gi)
}

// TestCumulativeChangesetEncodesEarlierUpdates is the minimal unit case
// of the drift bug the quality autopilot fixes: two sequential
// post-materialization updates touching disjoint groups, inferred
// variationally (the store-exhaustion regime). The second pass's
// inference graph must still encode the first update's groups — with
// per-update change sets the first update's variable has no factor in
// the approximate graph and its marginal collapses to ~0.5.
func TestCumulativeChangesetEncodesEarlierUpdates(t *testing.T) {
	base := chainGraph(6, 0.5)

	run := func(cumulative bool) (first, second float64, eng *Engine) {
		t.Helper()
		var err error
		eng, err = NewEngine(base, Options{
			MaterializationSamples: 400,
			KeepSamples:            400,
			Seed:                   11,
			DisableSampling:        true, // force the variational path (the post-exhaustion regime)
			CumulativeChanges:      cumulative,
		})
		if err != nil {
			t.Fatal(err)
		}
		g1, a, giA := addBiasedVar(t, base, 2.0)
		r1 := eng.AutoInferCtx(nil, g1, ChangeSet{ChangedNew: []int32{giA}}, nil, false)
		if r1.Strategy != StrategyVariational {
			t.Fatalf("first update strategy = %v, want variational", r1.Strategy)
		}
		g2, _, giB := addBiasedVar(t, g1, 2.0)
		r2 := eng.AutoInferCtx(nil, g2, ChangeSet{ChangedNew: []int32{giB}}, nil, false)
		if r2.Strategy != StrategyVariational {
			t.Fatalf("second update strategy = %v, want variational", r2.Strategy)
		}
		return r1.Marginals[a], r2.Marginals[a], eng
	}

	first, second, eng := run(true)
	if first < 0.7 {
		t.Fatalf("first update marginal = %v, want > 0.7 (bias weight 2)", first)
	}
	if second < 0.7 {
		t.Fatalf("cumulative mode: second update dropped the first update's group — marginal %v -> %v", first, second)
	}
	acc := eng.Accumulated()
	if len(acc.ChangedNew) != 2 {
		t.Fatalf("Accumulated().ChangedNew = %v, want both updates' groups", acc.ChangedNew)
	}

	// The lesion: per-update change sets reproduce the drift. This pins
	// that the fix above is load-bearing, not vacuous.
	first, second, eng = run(false)
	if first < 0.7 {
		t.Fatalf("lesion first update marginal = %v, want > 0.7", first)
	}
	if second > 0.6 {
		t.Fatalf("lesion second update marginal = %v — expected drift toward 0.5 without cumulative tracking", second)
	}
	if acc := eng.Accumulated(); len(acc.ChangedNew) != 0 {
		t.Fatalf("lesion engine accumulated %v with CumulativeChanges off", acc.ChangedNew)
	}
}

// TestChooseStrategyMeasured pins the §3.2 decision rule: high measured
// acceptance → sampling, low → variational, an empty change set skips the
// probe, and a store too drained to finish a sampling pass chooses
// variational upfront without burning a probe. It also pins that the choice
// keeps no memory: it is a function of the store position, the change set
// and the updated graph alone, so asking twice answers alike, moved weights
// are measured afresh, and an engine that has just sampled chooses as a
// fresh engine at the same store position does.
func TestChooseStrategyMeasured(t *testing.T) {
	g := chainGraph(6, 0.6)
	opts := Options{
		MaterializationSamples: 400,
		KeepSamples:            100,
		Seed:                   13,
		MeasuredOptimizer:      true,
	}
	// fresh is a new engine over g with its store consumed up to eng's.
	fresh := func(eng *Engine) *Engine {
		t.Helper()
		f, err := NewEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		f.Store().Skip(eng.Store().Len() - eng.Store().Remaining())
		return f
	}
	eng, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Empty change set: sampling, unprobed (every proposal accepts).
	if s, p := eng.ChooseStrategyMeasured(g, ChangeSet{}); s != StrategySampling || p != -1 {
		t.Fatalf("empty cs: (%v, %v), want (sampling, -1)", s, p)
	}

	// Near-identical distribution: probe ≈ 1 → sampling.
	reweigh := func(w float64) *factor.Graph {
		ng := factor.NewBuilderFrom(g).MustBuild()
		ng.SetWeight(ng.Group(0).Weight, w)
		return ng
	}
	tweak := reweigh(0.6 + 1e-6)
	cs := ChangeSet{ChangedOld: []int32{0}, ChangedNew: []int32{0}}
	s, p := eng.ChooseStrategyMeasured(tweak, cs)
	if s != StrategySampling || p < acceptHigh {
		t.Fatalf("tiny change: (%v, %v), want sampling with high probe", s, p)
	}

	// The same question again: the same answer, and the store is untouched.
	left := eng.Store().Remaining()
	if s2, p2 := eng.ChooseStrategyMeasured(tweak, cs); s2 != s || p2 != p || eng.Store().Remaining() != left {
		t.Fatalf("repeated question: (%v, %v) with %d left, want (%v, %v) with %d", s2, p2, eng.Store().Remaining(), s, p, left)
	}

	// The same change set at the same store position, but moved weights: the
	// probe is measured again, as a fresh engine measures it.
	moved := reweigh(-0.9)
	sm, pm := eng.ChooseStrategyMeasured(moved, cs)
	if sf, pf := fresh(eng).ChooseStrategyMeasured(moved, cs); sm != sf || pm != pf {
		t.Fatalf("moved weights: (%v, %v), a fresh engine chose (%v, %v)", sm, pm, sf, pf)
	}
	if pm == p {
		t.Fatalf("moved weights probed %v, as the tweak did: a stale verdict would pass the check above", pm)
	}

	// Heavy change: probe collapses → variational, even though the static
	// rules (structure change, no evidence change) would keep sampling.
	heavy := factor.NewBuilderFrom(g).MustBuild()
	for gi := 0; gi < heavy.NumGroups(); gi++ {
		heavy.SetWeight(heavy.Group(gi).Weight, -6)
	}
	all := make([]int32, heavy.NumGroups())
	for i := range all {
		all[i] = int32(i)
	}
	csAll := ChangeSet{ChangedOld: all, ChangedNew: all}
	if st := eng.ChooseStrategy(csAll); st != StrategySampling {
		t.Fatalf("static rules chose %v — the measured rule would not be load-bearing", st)
	}
	s, p = eng.ChooseStrategyMeasured(heavy, csAll)
	if s != StrategyVariational || p < 0 || p >= acceptLow {
		t.Fatalf("heavy change: (%v, %v), want variational with probe < %v", s, p, acceptLow)
	}

	// A sampling pass leaves nothing behind but its place in the store: the
	// next choice is a fresh engine's at that place.
	if r := eng.optimize(nil, tweak, cs, nil, false); r.Strategy != StrategySampling || r.FellBack {
		t.Fatalf("sampling pass: strategy=%v fellBack=%v", r.Strategy, r.FellBack)
	}
	s, p = eng.ChooseStrategyMeasured(tweak, cs)
	if sf, pf := fresh(eng).ChooseStrategyMeasured(tweak, cs); s != sf || p != pf || p < 0 {
		t.Fatalf("after sampling: (%v, %v), a fresh engine chose (%v, %v)", s, p, sf, pf)
	}

	// Drain the store below KeepSamples: variational upfront, unprobed.
	eng.Store().Skip(eng.Store().Remaining() - eng.opts.KeepSamples + 1)
	if s, p := eng.ChooseStrategyMeasured(tweak, cs); s != StrategyVariational || p != -1 {
		t.Fatalf("drained store: (%v, %v), want (variational, -1)", s, p)
	}
}
