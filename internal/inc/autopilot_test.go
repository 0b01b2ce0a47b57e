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
	for i := 0; i < 50; i++ {
		if _, ok := store.Next(nil); !ok {
			t.Fatal("store exhausted during setup")
		}
	}
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
	for store.Remaining() > 0 {
		store.Next(nil)
	}
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
// variational upfront without burning a probe.
func TestChooseStrategyMeasured(t *testing.T) {
	g := chainGraph(6, 0.6)
	eng, err := NewEngine(g, Options{
		MaterializationSamples: 400,
		KeepSamples:            100,
		Seed:                   13,
		MeasuredOptimizer:      true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Empty change set: sampling, unprobed (every proposal accepts).
	if s, p := eng.ChooseStrategyMeasured(g, ChangeSet{}); s != StrategySampling || p != -1 {
		t.Fatalf("empty cs: (%v, %v), want (sampling, -1)", s, p)
	}

	// Near-identical distribution: probe ≈ 1 → sampling.
	tweak := factor.NewBuilderFrom(g).MustBuild()
	tweak.SetWeight(tweak.Group(0).Weight, 0.6+1e-6)
	cs := ChangeSet{ChangedOld: []int32{0}, ChangedNew: []int32{0}}
	s, p := eng.ChooseStrategyMeasured(tweak, cs)
	if s != StrategySampling || p < eng.opts.AcceptHigh {
		t.Fatalf("tiny change: (%v, %v), want sampling with high probe", s, p)
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
	if s != StrategyVariational || p < 0 || p >= eng.opts.AcceptLow {
		t.Fatalf("heavy change: (%v, %v), want variational with probe < %v", s, p, eng.opts.AcceptLow)
	}

	// Drain the store below KeepSamples: variational upfront, unprobed.
	for eng.Store().Remaining() >= eng.opts.KeepSamples {
		eng.Store().Next(nil)
	}
	if s, p := eng.ChooseStrategyMeasured(tweak, cs); s != StrategyVariational || p != -1 {
		t.Fatalf("drained store: (%v, %v), want (variational, -1)", s, p)
	}
}

// TestAcceptancePriorSkipsProbe pins the acceptance-prior short-circuit:
// a sampling run's observed acceptance rate, when decisive by the 2x
// margin, decides the next strategy choice without measuring a probe —
// and the prior is one-shot, so the choice after a skip probes again
// unless another sampling run re-validated it. The chain of 30 is past the
// enumeration bound: AutoInferCtx hands it to the optimizer.
func TestAcceptancePriorSkipsProbe(t *testing.T) {
	g := chainGraph(30, 0.6)
	eng, err := NewEngine(g, Options{
		MaterializationSamples: 600,
		KeepSamples:            100,
		Seed:                   13,
		MeasuredOptimizer:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	retune := func(gi int) (*factor.Graph, ChangeSet) {
		ng := factor.NewBuilderFrom(g).MustBuild()
		ng.SetWeight(ng.Group(gi).Weight, 0.6+1e-6)
		return ng, ChangeSet{ChangedOld: []int32{int32(gi)}, ChangedNew: []int32{int32(gi)}}
	}

	// Cold engine: the first update probes, runs sampling (near-identical
	// distribution), and its observed acceptance becomes a decisive prior.
	g1, cs1 := retune(0)
	r := eng.AutoInferCtx(nil, g1, cs1, nil, true)
	if r.Strategy != StrategySampling || r.Probed < 0 || r.ProbeSkipped {
		t.Fatalf("cold update: strategy=%v probed=%v skipped=%v, want probed sampling", r.Strategy, r.Probed, r.ProbeSkipped)
	}
	if !eng.priorValid || eng.priorAccept < 2*eng.opts.AcceptHigh {
		t.Fatalf("sampling run left prior (valid=%v, %v), want decisive >= %v", eng.priorValid, eng.priorAccept, 2*eng.opts.AcceptHigh)
	}

	// Next choice (new fingerprint, so the memo cannot answer): the prior
	// decides sampling without a probe.
	g2, cs2 := retune(1)
	if s, p := eng.ChooseStrategyMeasured(g2, cs2); s != StrategySampling || p != -1 || !eng.ProbeSkipped() {
		t.Fatalf("primed prior: (%v, %v, skipped=%v), want (sampling, -1, true)", s, p, eng.ProbeSkipped())
	}

	// The skip consumed the prior: the same question again must measure.
	if s, p := eng.ChooseStrategyMeasured(g2, cs2); s != StrategySampling || p < 0 || eng.ProbeSkipped() {
		t.Fatalf("consumed prior: (%v, %v, skipped=%v), want a fresh probe", s, p, eng.ProbeSkipped())
	}

	// A wholesale-rejection observation skips straight to variational.
	eng.notePrior(0, 200)
	g3, cs3 := retune(2)
	if s, p := eng.ChooseStrategyMeasured(g3, cs3); s != StrategyVariational || p != -1 || !eng.ProbeSkipped() {
		t.Fatalf("low prior: (%v, %v, skipped=%v), want (variational, -1, true)", s, p, eng.ProbeSkipped())
	}

	// ResetProbeCache (the checkpoint hook) drops the prior along with the
	// memo, so a recovered process starts from the same cold state.
	eng.notePrior(1, 200)
	eng.ResetProbeCache()
	g4, cs4 := retune(3)
	if s, p := eng.ChooseStrategyMeasured(g4, cs4); s != StrategySampling || p < 0 || eng.ProbeSkipped() {
		t.Fatalf("after reset: (%v, %v, skipped=%v), want a fresh probe", s, p, eng.ProbeSkipped())
	}
}
