package exp

import (
	"strings"
	"testing"
	"time"

	"deepdive"
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

// recordedStrategies are the strategies the optimizer chose for A1…S2 on
// the five systems at Quick scale (s: sampling, v: variational), scoped and
// under GlobalFinish. How a variational run comes by its marginals never
// reaches the optimizer, so the table held when that runner stopped sweeping.
// It was re-recorded once since: materialization now stores exact
// independent worlds instead of consecutive sweeps of one chain, and the
// measured probe — 24 stored worlds scored against the update — reads a
// different store. Where its estimate sits near a threshold the verdict
// follows the store's content (any change to how the worlds are drawn moves a
// few sequences): three of the thirty scoped ones differ from the chain-era
// record — Pharma seed 1 svvsvv → ssssvv, Pharma seed 2 svvvvv → svvsvv,
// Paleontology seed 3 ssssvv → svvvvv — and none under GlobalFinish.
var recordedStrategies = map[int64][2][5]string{
	1: {{"ssssvs", "svvvvv", "ssssvs", "ssssvv", "svvvvv"}, {"sssvvv", "sssvvv", "sssvvv", "sssvvv", "sssvvv"}},
	2: {{"ssssvs", "svvvvv", "ssssvs", "svvsvv", "svvvvv"}, {"sssvvv", "sssvvv", "sssvvv", "sssvvv", "sssvvv"}},
	3: {{"ssssvs", "svvvvv", "ssssvs", "svvvvv", "svvvvv"}, {"sssvvv", "sssvvv", "sssvvv", "sssvvv", "sssvvv"}},
}

// TestVariationalRunsSweepNothing is the count guard: over the five systems
// and the six iterations, on the update's scope and on the whole graph
// (GlobalFinish), every connected component of every variational run's
// inference graph is small enough to enumerate — no variable is left to a
// Gibbs chain — and the strategy sequence is the recorded one.
func TestVariationalRunsSweepNothing(t *testing.T) {
	variational := 0
	for _, seed := range loopSeeds() {
		for li, l := range []deepdive.Lesions{{}, {GlobalFinish: true}} {
			for si, sys := range systems(Quick) {
				got := ""
				err := develop(sys, kbOptions(seed, deepdive.WithLesions(l)), func(k int, st step) error {
					got += st.Strategy.String()[:1]
					if st.Strategy == deepdive.StrategyVariational {
						variational++
					}
					if st.SweptVars != 0 {
						t.Errorf("seed %d %s %s (whole graph %v): %s run swept %d of %d dirty variables", seed, sys.Spec.Name, st.Rule, l.GlobalFinish, st.Strategy, st.SweptVars, st.DirtyVars)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := recordedStrategies[seed][li][si]; got != want {
					t.Errorf("seed %d %s (whole graph %v): strategies %s, recorded %s", seed, sys.Spec.Name, l.GlobalFinish, got, want)
				}
			}
		}
	}
	if variational < 25 {
		t.Errorf("%d variational runs: the guard guards nothing", variational)
	}
}

// TestFromScratchSweepsNothing is the same guard for set-up: on the five
// systems, under the base program and under the full one (the graphs the
// bench's set-up, rerun and exact-inference oracles solve), Infer and
// Materialize enumerate every component — each free variable is solved in
// closed form or by enumeration, none is swept.
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
			}
		}
	}
}

// f1GapBound is the bench's inc.f1_gap bound: how far incremental F1 may
// trail the from-scratch rerun's.
const f1GapBound = 0.03

// Figures 9 and 10(a): over the six iterations the incremental loop
// spends less on learning + inference than rerunning from scratch, and
// ends at the rerun's quality. Figure 10(a) is Figure 9's News rows,
// accumulated. The times are wall-clock and, at this scale, only some
// 15% apart, so devLoop measures each iteration's two sides back to back
// and they are compared once, summed over every system and seed (about
// 2 s a side), and not at all on the single seed of -short.
func TestFig9And10aIncrementalBeatsRerun(t *testing.T) {
	var rerun, incr time.Duration
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
	if !testing.Short() && incr >= rerun {
		t.Errorf("cumulative incremental learn+infer %v is not below rerun %v", incr, rerun)
	}
	t.Logf("cumulative learn+infer: incremental %v, rerun %v", incr, rerun)
}

// Figure 11: a lesion that removes a strategy removes it from every
// update's report.
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
// global acceptance test collapses where per-component tests keep
// accepting.
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
