package inc_test

// The incremental engine on the five evaluation systems' own graphs and
// development iterations (grounded bare, through internal/kbc), against
// the loops it replaced: the references live in export_test.go.

import (
	"math"
	"slices"
	"testing"
	"time"

	"deepdive/internal/corpus"
	"deepdive/internal/datalog"
	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
	"deepdive/internal/kbc"
	"deepdive/internal/learn"
)

// fiveSystems is the evaluation systems shrunk to test size.
func fiveSystems() []*corpus.System {
	var out []*corpus.System
	for _, spec := range []corpus.Spec{corpus.Adversarial(), corpus.News(), corpus.Genomics(), corpus.Pharma(), corpus.Paleontology()} {
		spec.NumDocs = max(spec.NumDocs/8, 20)
		spec.TruePairsPerRel = min(spec.TruePairsPerRel, 8)
		spec.FalsePairsPerRel = min(spec.FalsePairsPerRel, 24)
		out = append(out, corpus.Generate(spec))
	}
	return out
}

func must(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

// train runs a few epochs of learning on the grounder's graph from its
// current weights, the fixed-weight rules frozen.
func train(gr *ground.Grounder, epochs int, seed int64) *factor.Graph {
	g := gr.Graph()
	frozen := make([]bool, g.NumWeights())
	for w := range frozen {
		frozen[w] = true
	}
	for _, w := range gr.LearnableWeights() {
		frozen[w] = false
	}
	learn.Train(g, learn.Options{Epochs: epochs, Seed: seed, Warmstart: slices.Clone(g.Weights()), Frozen: frozen})
	return g
}

// applyIteration grounds one development iteration as a rule update.
func applyIteration(tb testing.TB, gr *ground.Grounder, sys *corpus.System, name string) *ground.Delta {
	tb.Helper()
	rules, err := datalog.ParseRules(gr.Program(), kbc.IterationRules(sys, name))
	must(tb, err)
	delta, err := gr.ApplyUpdate(ground.Update{NewRules: rules})
	must(tb, err)
	return delta
}

// TestVisitAdjacentWalksItsOwnGroups: walking only the groups adjacent to
// a component reports the pairs the walk over every group reported, in
// the same order — so Variational.Edges and the log-det patterns are what
// they were — on the five systems at the final program, grounded whole and
// reached through a patch.
func TestVisitAdjacentWalksItsOwnGroups(t *testing.T) {
	last := len(kbc.IterationNames) - 1
	for _, sys := range fiveSystems() {
		whole, err := kbc.Ground(sys, factor.Ratio, last+1)
		must(t, err)
		patched, err := kbc.Ground(sys, factor.Ratio, last)
		must(t, err)
		patched.Graph()
		applyIteration(t, patched, sys, kbc.IterationNames[last])
		for i, g := range []*factor.Graph{whole.Graph(), patched.Graph()} {
			got, want := inc.AdjacentPairs(g, false), inc.AdjacentPairs(g, true)
			if len(want) < 10 || !slices.Equal(got, want) {
				t.Errorf("%s (graph %d): %d pairs and component marks, the full walk reports %d", sys.Spec.Name, i, len(got), len(want))
			}
		}
	}
}

// TestDecomposedSkipIsBitIdentical holds the decomposed sampler — which
// accepts a block whose proposal equals the chain's values without scoring
// it and keeps each block's current score between proposals — to the loop
// it replaced, which scored every touched block twice per replayed world:
// the same marginals, acceptance, test count and store consumption, bit
// for bit, over the five systems × the whole-rule iterations, without the
// variational side, on the whole graph and on the update's scope, down to
// the run that exhausts the store.
func TestDecomposedSkipIsBitIdentical(t *testing.T) {
	opts := inc.Options{MaterializationSamples: 260, KeepSamples: 100, Burnin: 20, Seed: 7, DisableVariational: true}
	rejecting := 0
	for _, sys := range fiveSystems() {
		for k, name := range kbc.IterationNames {
			if name == "A1" || name == "S1" {
				continue
			}
			gr, err := kbc.Ground(sys, factor.Ratio, k)
			must(t, err)
			oldG := train(gr, 5, 3).Clone()
			var engines [2]*inc.Engine
			for i := range engines {
				engines[i], err = inc.NewEngine(oldG, opts)
				must(t, err)
			}
			delta := applyIteration(t, gr, sys, name)
			newG := train(gr, 2, 5) // warm-start drift on top of the structural delta

			cs := inc.FromDelta(delta)
			seeds := append(slices.Clone(delta.NewVars), delta.EvidenceChanged...)
			note := func(v factor.VarID) { seeds = append(seeds, v) }
			for _, gi := range cs.ChangedNew {
				newG.GroupVars(gi, note)
			}
			var drift inc.ChangeSet
			for gi := 0; gi < oldG.NumGroups(); gi++ {
				if w := oldG.GroupWeight(gi); oldG.Weight(w) != newG.Weight(w) {
					drift.ChangedOld, drift.ChangedNew = append(drift.ChangedOld, int32(gi)), append(drift.ChangedNew, int32(gi))
					if name == "S2" { // a supervision update's scope: evidence changes plus the weights they moved
						newG.GroupVars(int32(gi), note)
					}
				}
			}
			cs = cs.Merge(drift)
			dirty := engines[0].Scope(newG, seeds, delta.EvidenceChanged)
			scope, scopedCS := dirty.Sorted(), cs.Within(newG, dirty)
			if len(scope) == 0 || len(cs.ChangedNew) == 0 {
				t.Fatalf("%s %s: empty update (scope %d, %d changed groups)", sys.Spec.Name, name, len(scope), len(cs.ChangedNew))
			}

			for run, scoped := range []bool{false, true, false, false} {
				var res [2]*inc.Result
				for i, e := range engines {
					c, sc := cs, []factor.VarID(nil)
					if scoped {
						c, sc = scopedCS, scope
					}
					infer := inc.SamplingInferCtx
					if i == 1 {
						infer = inc.SamplingInferRef
					}
					res[i] = infer(nil, e.OldGraph(), newG, e.Store(), c, inc.ComponentGroups(newG, sc), sc, opts.KeepSamples, opts.Seed+31)
				}
				got, want := res[0], res[1]
				if got.AcceptanceRate != want.AcceptanceRate || got.SamplesUsed != want.SamplesUsed || got.FellBack != want.FellBack ||
					got.Strategy != want.Strategy || engines[0].Store().Remaining() != engines[1].Store().Remaining() {
					t.Fatalf("%s %s run %d (scoped %v): acceptance %v over %d tests, fell back %v, %d worlds left; the reference loop %v over %d, %v, %d",
						sys.Spec.Name, name, run, scoped, got.AcceptanceRate, got.SamplesUsed, got.FellBack, engines[0].Store().Remaining(),
						want.AcceptanceRate, want.SamplesUsed, want.FellBack, engines[1].Store().Remaining())
				}
				if len(got.Marginals) != len(want.Marginals) || run == 0 && want.SamplesUsed == 0 {
					t.Fatalf("%s %s run %d: %d marginals, reference %d over %d tests", sys.Spec.Name, name, run, len(got.Marginals), len(want.Marginals), want.SamplesUsed)
				}
				for v := range want.Marginals {
					if math.Float64bits(got.Marginals[v]) != math.Float64bits(want.Marginals[v]) {
						t.Fatalf("%s %s run %d (scoped %v): marginal %d is %v, the reference loop gives %v", sys.Spec.Name, name, run, scoped, v, got.Marginals[v], want.Marginals[v])
					}
				}
				if run == 3 && !want.FellBack {
					t.Errorf("%s %s: the fourth run was to exhaust the store, %d worlds are left", sys.Spec.Name, name, engines[1].Store().Remaining())
				}
				if run == 0 {
					t.Logf("%s %s: %d variables, scope %d, %d changed groups, acceptance %.3f over %d tests", sys.Spec.Name, name, newG.NumVars(), len(scope), len(cs.ChangedNew), want.AcceptanceRate, want.SamplesUsed)
				}
				if want.AcceptanceRate < 1 {
					rejecting++ // scores were compared, not only skipped
				}
			}
		}
	}
	if rejecting == 0 {
		t.Error("no run rejected a proposal: the acceptance test was never exercised")
	}
}

// TestDecomposedStraddlingGroup: a materialized group whose variables the
// new graph no longer ties together (what compaction leaves of a deleted
// grounding) is scored by one block while reading another's variables.
// Such a block's score moves when the other block does, so it is rescored
// on every test — and the chain is still the reference loop's.
func TestDecomposedStraddlingGroup(t *testing.T) {
	build := func(tied bool) *factor.Graph {
		b := factor.NewBuilder()
		anchor := b.AddEvidenceVar(true)
		for c := 0; c < 6; c++ {
			x, y := b.AddVar(), b.AddVar()
			other := y
			if !tied {
				other = anchor
			}
			b.AddGroup(x, b.AddWeight(0.9-0.3*float64(c)), factor.Ratio, []factor.Grounding{{Lits: []factor.Literal{{Var: other}}}})
			b.AddGroup(y, b.AddWeight(0.2*float64(c)-0.4), factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
		}
		return b.MustBuild()
	}
	oldG, newG := build(true), build(false)
	cs := inc.ChangeSet{}
	for c := int32(0); c < 6; c++ {
		cs.ChangedOld, cs.ChangedNew = append(cs.ChangedOld, 2*c), append(cs.ChangedNew, 2*c)
	}
	opts := inc.Options{MaterializationSamples: 400, KeepSamples: 300, Burnin: 20, Seed: 5, DisableVariational: true}
	got, err := inc.NewEngine(oldG, opts)
	must(t, err)
	want, err := inc.NewEngine(oldG, opts)
	must(t, err)
	blocks := inc.ComponentGroups(newG, nil)
	if len(blocks) != 12 {
		t.Fatalf("%d blocks, want every variable its own", len(blocks))
	}
	a := inc.SamplingInferCtx(nil, oldG, newG, got.Store(), cs, blocks, nil, opts.KeepSamples, opts.Seed+31)
	b := inc.SamplingInferRef(nil, oldG, newG, want.Store(), cs, blocks, nil, opts.KeepSamples, opts.Seed+31)
	if a.AcceptanceRate != b.AcceptanceRate || a.SamplesUsed != b.SamplesUsed || b.AcceptanceRate == 1 || !slices.Equal(a.Marginals, b.Marginals) {
		t.Fatalf("acceptance %v over %d tests, marginals %v; the reference loop %v over %d, %v", a.AcceptanceRate, a.SamplesUsed, a.Marginals, b.AcceptanceRate, b.SamplesUsed, b.Marginals)
	}
}

// BenchmarkVariationalRun is one whole-graph variational run on a quarter
// of the News corpus after I1, every weight drifted (9 127 variables, 36 508
// changed groups): ns/op is the run, build-ns/op the share of it spent in
// BuildInferenceGraph (timed on a second build of the same graph).
func BenchmarkVariationalRun(b *testing.B) {
	spec := corpus.News()
	spec.NumDocs /= 4
	sys := corpus.Generate(spec)
	gr, err := kbc.Ground(sys, factor.Ratio, 3)
	must(b, err)
	oldG := train(gr, 5, 3).Clone()
	eng, err := inc.NewEngine(oldG, inc.Options{MaterializationSamples: 300, KeepSamples: 300, Burnin: 30, Seed: 7})
	must(b, err)
	delta := applyIteration(b, gr, sys, kbc.IterationNames[3])
	newG := train(gr, 2, 5)
	cs := inc.FromDelta(delta)
	for gi := 0; gi < oldG.NumGroups(); gi++ {
		if w := oldG.GroupWeight(gi); oldG.Weight(w) != newG.Weight(w) {
			cs.ChangedNew = append(cs.ChangedNew, int32(gi))
		}
	}
	vm := eng.Variational()
	b.ReportAllocs()
	b.ResetTimer()
	var build time.Duration
	swept := 0
	for i := 0; i < b.N; i++ {
		_, solved := inc.VariationalInferCtx(nil, vm, oldG, newG, cs.ChangedNew, nil, 30, 300, 1)
		swept += solved.Swept
		b.StopTimer()
		start := time.Now()
		vm.BuildInferenceGraph(oldG, newG, cs.ChangedNew, nil)
		build += time.Since(start)
		b.StartTimer()
	}
	b.ReportMetric(float64(build.Nanoseconds())/float64(b.N), "build-ns/op")
	b.ReportMetric(float64(swept)/float64(b.N), "swept-vars/op")
}
