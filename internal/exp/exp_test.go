package exp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"deepdive"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

// The experiment functions are exercised end to end by cmd/deepdive-exp
// and the repository benchmarks; these tests pin their report structure,
// the cheap invariants, and — for the figures that drive the development
// loop — the paper's qualitative results on the rows the reports are
// formatted from.

// loopSeeds are the seeds the loop figures are checked at (one under
// -short).
func loopSeeds() []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

// TestIncrementalEqualsFromScratch is the paper's claim — the incremental
// loop computes the distribution a from-scratch run does — as an equality.
// Two KBs of the same seed apply the six iterations on each of the five
// systems, on the update's scope and on the whole graph (GlobalFinish); the
// second one reruns inference from scratch (KB.Infer) after every update.
// After every update the first one serves the second one's marginals to
// 1e-9, because every dirty component enumerates: each update reports
// StrategyExact with nothing swept, and no stored world is read.
func TestIncrementalEqualsFromScratch(t *testing.T) {
	ctx := context.Background()
	for _, seed := range loopSeeds() {
		for _, l := range []deepdive.Lesions{{}, {GlobalFinish: true}} {
			for _, sys := range systems(Quick) {
				opts := kbOptions(seed, deepdive.WithLesions(l))
				inc, err := materialized(sys, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := materialized(sys, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				store := inc.Autopilot().StoreRemaining
				worst := 0.0
				for _, rule := range kbc.IterationNames {
					u := deepdive.Update{RuleSource: kbc.IterationRules(sys, rule)}
					res, err := inc.Apply(ctx, u)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := scratch.Apply(ctx, u); err != nil {
						t.Fatal(err)
					}
					if _, err := scratch.Infer(ctx); err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("seed %d %s %s (whole graph %v)", seed, sys.Spec.Name, rule, l.GlobalFinish)
					if res.Strategy != deepdive.StrategyExact || res.SweptVars != 0 {
						t.Errorf("%s: %v run, %d of %d dirty variables swept", where, res.Strategy, res.SweptVars, res.DirtyVars)
					}
					if got := inc.Autopilot().StoreRemaining; got != store {
						t.Errorf("%s: %d stored worlds left of %d", where, got, store)
					}
					got, want := inc.Snapshot(), scratch.Snapshot()
					for _, rel := range want.Relations() {
						gf, wf := got.Facts(rel), want.Facts(rel)
						if len(gf) != len(wf) {
							t.Fatalf("%s: %d %s facts served, %d from scratch", where, len(gf), rel, len(wf))
						}
						for i, w := range wf {
							d := math.Abs(gf[i].Probability - w.Probability)
							worst = max(worst, d)
							if d > 1e-9 || !gf[i].Known {
								t.Fatalf("%s: %s%v served at %v (known %v), %v from scratch", where, rel, w.Tuple, gf[i].Probability, gf[i].Known, w.Probability)
							}
						}
					}
				}
				if ap := inc.Autopilot(); ap.ExactRuns != uint64(len(kbc.IterationNames)) || ap.SamplingRuns+ap.VariationalRuns+ap.RerunRuns != 0 {
					t.Errorf("seed %d %s (whole graph %v): autopilot counted %+v", seed, sys.Spec.Name, l.GlobalFinish, ap)
				}
				inc.Close()
				scratch.Close()
				t.Logf("seed %d %s (whole graph %v): largest gap %.2g", seed, sys.Spec.Name, l.GlobalFinish, worst)
			}
		}
	}
}

// TestFromScratchSweepsNothing is the same guard for set-up: on the five
// systems, under the base program and under the full one (the graphs the
// bench's set-up, rerun and exact-inference oracles solve), Infer and
// Materialize enumerate every component — each free variable is solved in
// closed form or by enumeration, none is swept — and so does Learn, whose
// evidence-bearing components, evidence released, hold at most two
// variables.
func TestFromScratchSweepsNothing(t *testing.T) {
	for _, seed := range loopSeeds() {
		for _, sys := range systems(Quick) {
			for _, upTo := range []int{0, finalProgram} {
				kb, err := materialized(sys, upTo, kbOptions(seed))
				if err != nil {
					t.Fatal(err)
				}
				st := kb.Stats()
				kb.Close()
				for pass, n := range map[string]deepdive.Solved{"Infer": st.Inferred, "Materialize": st.Materialized} {
					if n.Swept != 0 || n.Closed+n.Enumerated != st.QueryFacts || n.Largest > 3 {
						t.Errorf("seed %d %s (program %d): %s solved %+v of %d free variables", seed, sys.Spec.Name, upTo, pass, n, st.QueryFacts)
					}
				}
				if n := st.Learned; n.Swept != 0 || n.Closed+n.Enumerated < st.Evidence || n.Largest > 2 {
					t.Errorf("seed %d %s (program %d): Learn solved %+v around %d evidence variables", seed, sys.Spec.Name, upTo, n, st.Evidence)
				}
			}
		}
	}
}

// TestLearnedWeightsIgnoreSeedAndRuntime: where every evidence-bearing
// component enumerates, learning runs no chain, so the weights KB.Learn
// installs on the five systems — base program and full — are the same bits
// under another seed, sharded chains and the replica engine.
func TestLearnedWeightsIgnoreSeedAndRuntime(t *testing.T) {
	for _, sys := range systems(Quick) {
		for _, upTo := range []int{0, finalProgram} {
			var want []float64
			for i, opts := range [][]deepdive.Option{
				kbOptions(1),
				kbOptions(2),
				kbOptions(1, deepdive.WithParallelism(4)),
				kbOptions(1, deepdive.WithReplicas(2, 4)),
			} {
				kb, err := kbc.OpenKB(sys, factor.Ratio, upTo, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := kb.Learn(context.Background()); err != nil {
					t.Fatal(err)
				}
				got := kb.Weights()
				kb.Close()
				if i == 0 {
					if want = got; len(want) == 0 {
						t.Fatalf("%s (program %d): no weights", sys.Spec.Name, upTo)
					}
					continue
				}
				for w := range want {
					if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
						t.Fatalf("%s (program %d), configuration %d: weight %d = %v, %v under the first", sys.Spec.Name, upTo, i, w, got[w], want[w])
					}
				}
			}
		}
	}
}

// f1GapBound is the bench's inc.f1_gap bound: how far incremental F1 may
// trail the from-scratch rerun's.
const f1GapBound = 0.03

// Figures 9 and 10(a): over the six iterations the incremental loop ends
// at the rerun's quality, and spends less on learning, and on learning and
// inference together, than rerunning from scratch. Figure 10(a) is Figure
// 9's News rows, accumulated. Every component of these graphs enumerates,
// so a rerun learns and infers exactly in a few milliseconds a system; an
// update does the same on the components it dirtied only. The times are
// wall-clock, so devLoop measures each iteration's two sides back to back
// and they are compared once, summed over every system and seed, and not at
// all on the single seed of -short.
func TestFig9And10aIncrementalBeatsRerun(t *testing.T) {
	var rerun, incr, rerunLearn, incrLearn time.Duration
	for _, seed := range loopSeeds() {
		rows, err := fig9Rows(Quick, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 30 { // 5 systems × 6 iterations
			t.Fatalf("seed %d: %d rows", seed, len(rows))
		}
		for _, r := range rows {
			rerun += r.Rerun
			incr += r.Inc
			rerunLearn += r.RerunLearn
			incrLearn += r.IncLearn
			if r.System != "News" {
				continue
			}
			// No iteration may stall below the rerun's trajectory (the
			// per-update change sets of the retired second loop trailed by
			// up to 0.021 mid-loop and 0.016 at the end).
			if gap := r.RerunF1 - r.IncF1; gap > f1GapBound {
				t.Errorf("seed %d: News %s: incremental F1 %.3f trails rerun %.3f by %.3f > %.2f",
					seed, r.Rule, r.IncF1, r.RerunF1, gap, f1GapBound)
			}
		}
	}
	if !testing.Short() && incrLearn >= rerunLearn {
		t.Errorf("cumulative incremental learning %v is not below rerun learning %v", incrLearn, rerunLearn)
	}
	if !testing.Short() && incr >= rerun {
		t.Errorf("cumulative incremental learn+infer %v is not below the rerun's %v", incr, rerun)
	}
	t.Logf("cumulative learning: incremental %v, rerun %v", incrLearn, rerunLearn)
	t.Logf("cumulative learn+infer: incremental %v, rerun %v", incr, rerun)
}

// Figure 11: a lesion that removes a strategy removes it from every
// update's report. (On these graphs every update is solved exactly, so no
// update reports either one: the lesions act on a remainder, which the
// chain tests at the repository root give them.)
func TestFig11LesionsReachTheOptimizer(t *testing.T) {
	for _, seed := range loopSeeds() {
		rows, err := lesionRows(Quick, seed, fig11Variants[1:3]) // NoSampling, NoRelax
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if s := row[0].Strategy; s == deepdive.StrategySampling {
				t.Errorf("seed %d %s: NoSampling ran %v", seed, row[0].Rule, s)
			}
			if s := row[1].Strategy; s == deepdive.StrategyVariational {
				t.Errorf("seed %d %s: NoVariational ran %v", seed, row[1].Rule, s)
			}
		}
	}
}

// Figure 14: on the updates that change the graph's structure, one
// global acceptance test collapses where the decomposition — each
// component solved on its own, here every one exactly — accepts.
func TestFig14DecompositionKeepsAcceptance(t *testing.T) {
	for _, seed := range loopSeeds() {
		rows, err := lesionRows(Quick, seed, fig14Variants)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			all, noDec := row[0], row[1]
			switch all.Rule {
			case "FE1", "FE2", "I1":
				if all.Acceptance < noDec.Acceptance || noDec.Acceptance >= 0.2 {
					t.Errorf("seed %d %s: acceptance %.2f with decomposition, %.2f without",
						seed, all.Rule, all.Acceptance, noDec.Acceptance)
				}
			}
		}
	}
}

func TestFig4ClosedForms(t *testing.T) {
	r := Fig4()
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "linear") || !strings.Contains(joined, "ratio") {
		t.Fatalf("report missing semantics rows:\n%s", joined)
	}
	// Linear row must show ~1, logical exactly 0.5.
	for _, l := range r.Lines {
		if strings.HasPrefix(l, "linear") && !strings.Contains(l, "1.0000") {
			t.Fatalf("linear row = %q", l)
		}
		if strings.HasPrefix(l, "logical") && !strings.Contains(l, "0.5000") {
			t.Fatalf("logical row = %q", l)
		}
	}
}

func TestFig5aSmall(t *testing.T) {
	r := Fig5a([]int{2, 10}, 1)
	if len(r.Lines) < 3 {
		t.Fatalf("too few lines: %v", r.Lines)
	}
	// Strawman must be present (not "—") for both feasible sizes.
	for _, l := range r.Lines[1:3] {
		if strings.Contains(l, "—") {
			t.Fatalf("strawman missing for feasible size: %q", l)
		}
	}
}

func TestFig5bAcceptanceMonotone(t *testing.T) {
	r := Fig5b(60, []float64{0, 2.0}, 1)
	if len(r.Lines) < 3 {
		t.Fatalf("lines = %v", r.Lines)
	}
	// delta = 0 row must report acceptance 1.000.
	if !strings.Contains(r.Lines[1], "1.000") {
		t.Fatalf("zero-delta row = %q", r.Lines[1])
	}
}

func TestFig13SmallConverges(t *testing.T) {
	r := Fig13([]int{4}, 1)
	if len(r.Lines) != 2 {
		t.Fatalf("lines = %v", r.Lines)
	}
	if strings.Contains(r.Lines[1], ">") {
		t.Fatalf("tiny voting program failed to converge: %q", r.Lines[1])
	}
}

func TestFig16And17Structure(t *testing.T) {
	r := Fig16(1)
	if len(r.Lines) != 5 { // header + 3 strategies + note
		t.Fatalf("Fig16 lines = %d: %v", len(r.Lines), r.Lines)
	}
	r = Fig17(1)
	if len(r.Lines) < 6 {
		t.Fatalf("Fig17 lines = %v", r.Lines)
	}
}

func TestFig15Budget(t *testing.T) {
	r := Fig15(Quick, 30*time.Millisecond, 1)
	if len(r.Lines) != 6 { // header + 5 systems
		t.Fatalf("Fig15 lines = %d: %v", len(r.Lines), r.Lines)
	}
}

func TestPairwiseGraphShape(t *testing.T) {
	g := pairwiseGraph(50, 2.0, 1.0, 1)
	if g.NumVars() != 50 || g.NumGroups() != 100 {
		t.Fatalf("graph shape: %d vars, %d groups", g.NumVars(), g.NumGroups())
	}
	newG, changed := perturbWeights(g, 10, 0.5)
	if len(changed) != 10 {
		t.Fatalf("changed = %d", len(changed))
	}
	if newG.Weight(newG.Group(0).Weight) == g.Weight(g.Group(0).Weight) {
		t.Fatal("perturbation did not change the first weight")
	}
	if newG.NumVars() != g.NumVars() {
		t.Fatal("perturbed graph has different variable count")
	}
}

func TestSystemsScales(t *testing.T) {
	quick := systems(Quick)
	if len(quick) != 5 {
		t.Fatalf("systems = %d", len(quick))
	}
	for _, s := range quick {
		if len(s.Docs) == 0 {
			t.Fatalf("%s: empty corpus", s.Spec.Name)
		}
	}
}
