// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B benchmark per artifact. Each benchmark wraps
// the corresponding internal/exp regeneration function (the same code the
// deepdive-exp command runs), so `go test -bench=.` re-measures the whole
// evaluation; each benchmark's comment names its paper artifact.
package deepdive_test

import (
	"sync"
	"testing"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/exp"
	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/inc"
	"deepdive/internal/kbc"
)

// BenchmarkFig4Semantics re-verifies the Figure 4 / Example 2.5 closed
// forms (trivial but kept for completeness of the per-figure index).
func BenchmarkFig4Semantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig4()
	}
}

// BenchmarkFig5aSize sweeps the graph-size axis of the tradeoff space.
func BenchmarkFig5aSize(b *testing.B) {
	sizes := []int{2, 10, 17, 100, 1000}
	for i := 0; i < b.N; i++ {
		_ = exp.Fig5a(sizes, 1)
	}
}

// BenchmarkFig5bAcceptance sweeps the amount-of-change axis.
func BenchmarkFig5bAcceptance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig5b(300, []float64{0, 0.3, 3.0}, 1)
	}
}

// BenchmarkFig5cSparsity sweeps the correlation-sparsity axis.
func BenchmarkFig5cSparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig5c(300, []float64{0.1, 0.5, 1.0}, 1)
	}
}

// BenchmarkFig6Lambda sweeps the variational regularization parameter on
// the News system.
func BenchmarkFig6Lambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig6(exp.Quick, []float64{0.01, 1}, 1)
	}
}

// BenchmarkFig7Stats grounds all five systems with the full rule
// inventory and reports the statistics table.
func BenchmarkFig7Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig7(exp.Quick, 1)
	}
}

// BenchmarkFig9Incremental reruns the Rerun-vs-Incremental table.
func BenchmarkFig9Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig9(exp.Quick, 1)
	}
}

// BenchmarkFig10aQualityOverTime replays the development sequence on
// News, both from scratch and incrementally.
func BenchmarkFig10aQualityOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig10a(exp.Quick, 1)
	}
}

// BenchmarkFig10bSemantics measures F1 for the three semantics across
// the five systems.
func BenchmarkFig10bSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig10b(exp.Quick, 1)
	}
}

// BenchmarkFig11Lesion disables each materialization strategy in turn.
func BenchmarkFig11Lesion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig11(exp.Quick, 1)
	}
}

// BenchmarkFig13Voting measures Gibbs convergence of the voting program
// under the three semantics (Appendix A / Figure 13).
func BenchmarkFig13Voting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig13([]int{4, 16, 64}, 1)
	}
}

// BenchmarkFig14Decomposition compares decomposed and monolithic
// incremental inference (Appendix B.1 / Figure 14).
func BenchmarkFig14Decomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig14(exp.Quick, 1)
	}
}

// BenchmarkFig15Budget measures samples materialized within a small
// wall-clock budget (Figure 15, scaled from the paper's 8 hours).
func BenchmarkFig15Budget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig15(exp.Quick, 50*time.Millisecond, 1)
	}
}

// BenchmarkFig16Learning compares the incremental learning strategies
// (Appendix B.3 / Figure 16).
func BenchmarkFig16Learning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig16(1)
	}
}

// BenchmarkFig17Drift measures warmstart learning under concept drift
// (Appendix B.4 / Figure 17).
func BenchmarkFig17Drift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig17(1)
	}
}

// BenchmarkGroundingIncremental measures DRed delta grounding against
// full re-grounding (the up-to-360× claim of Sections 1 and 4.2).
func BenchmarkGroundingIncremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Grounding(exp.Quick, 1)
	}
}

// BenchmarkApplyDocDelta is the finish stage's scaling check: 64 document
// deltas (three inserts to one delete) through KB.Apply, patching on, on
// the harness's served News corpus at 1× and at 4× the documents (size
// factor 8: the generator's floors make small factors sub-linear). Each
// size reports ns/update; x4 also reports the ratio to x1, which an O(Δ)
// finish stage keeps near 1 (the tied-weight fan-out of an update that
// does learn still grows with the corpus).
func BenchmarkApplyDocDelta(b *testing.B) {
	var x1 float64
	for _, size := range []struct {
		name   string
		factor float64
	}{{"x1", 1}, {"x4", 8}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			var spent time.Duration
			updates := 0
			for i := 0; i < b.N; i++ {
				w := newWireCorpus(b, 3, size.factor, 64)
				kb := w.materialized(b)
				start := time.Now()
				for _, u := range w.stream {
					if _, err := kb.Apply(ctx, u); err != nil {
						b.Fatal(err)
					}
				}
				spent += time.Since(start)
				updates += len(w.stream)
				kb.CloseNow()
			}
			per := float64(spent.Nanoseconds()) / float64(updates)
			b.ReportMetric(per, "ns/update")
			if size.factor == 1 {
				x1 = per
			} else if x1 > 0 {
				b.ReportMetric(per/x1, "x4/x1")
			}
		})
	}
}

// BenchmarkApplyRuleDelta is the same check for whole-rule updates: the six
// development iterations through KB.Apply on the harness's News corpus as
// it is and with four times the candidates, the added ones query-only
// (withQueryOnlyCopies). Each size reports ns/update and its ground, learn
// and infer parts from UpdateResult, and beside them how many dirty
// variables an update could not solve exactly and left to the optimizer's
// strategy (0: every dirty component enumerated); x4 also reports its learn stage's
// ratio to x1, which learning on the evidence scope keeps near 1 while
// grounding and inference, which a rule does owe every candidate, grow.
// The timer runs over the six updates only, so allocs/op and B/op are what
// the six rule updates of one KB allocate, its set-up and close excluded.
func BenchmarkApplyRuleDelta(b *testing.B) {
	var learnX1 float64
	for _, size := range []struct {
		name   string
		copies int
	}{{"x1", 0}, {"x4", 3}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			var spent, ground, learn, infer time.Duration
			swept := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newWireCorpus(b, 3, 1, 0).withQueryOnlyCopies(size.copies)
				kb := w.open(b, 0, 0)
				if _, err := kb.Materialize(ctx); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				for _, name := range kbc.IterationNames {
					res, err := kb.Apply(ctx, deepdive.Update{RuleSource: kbc.IterationRules(w.sys, name)})
					if err != nil {
						b.Fatal(err)
					}
					ground, learn, infer = ground+res.GroundTime, learn+res.LearnTime, infer+res.InferTime
					swept += res.SweptVars
				}
				spent += time.Since(start)
				b.StopTimer()
				kb.CloseNow()
				b.StartTimer()
			}
			per := func(d time.Duration) float64 {
				return float64(d.Nanoseconds()) / float64(b.N*len(kbc.IterationNames))
			}
			b.ReportMetric(per(spent), "ns/update")
			b.ReportMetric(per(ground), "ground-ns/update")
			b.ReportMetric(per(learn), "learn-ns/update")
			b.ReportMetric(per(infer), "infer-ns/update")
			b.ReportMetric(float64(swept)/float64(b.N*len(kbc.IterationNames)), "swept-vars/update")
			if size.copies == 0 {
				learnX1 = per(learn)
			} else if learnX1 > 0 {
				b.ReportMetric(per(learn)/learnX1, "learn-x4/x1")
			}
		})
	}
}

// BenchmarkMaterialize, BenchmarkInferFromScratch and
// BenchmarkLearnFromScratch are the three from-scratch passes of set-up —
// KB.Materialize, KB.Infer and KB.Learn, snapshot publication included — on
// the same News corpus at 1× and 4× candidates, the added ones query-only.
// All three solve the graph a connected component at a time; swept-vars is
// what was left to a Gibbs chain (0 on this corpus: every component
// enumerates). Learning visits only the components holding evidence, so its
// x4 costs what its x1 does. With nothing to sweep, Materialize defers the
// draw of the store and the variational fit to the first update that reads
// them; first-read-ms is that read, timed apart from the pass, so the
// deferred cost stays in view.
func BenchmarkMaterialize(b *testing.B) {
	benchFromScratch(b, func(kb *deepdive.KB) (time.Duration, error) { return kb.Materialize(ctx) },
		func(st deepdive.GraphStats) deepdive.Solved { return st.Materialized },
		func(kb *deepdive.KB) {
			eng, _ := kb.Engine()
			eng.Store()
		})
}

func BenchmarkInferFromScratch(b *testing.B) {
	benchFromScratch(b, func(kb *deepdive.KB) (time.Duration, error) { return kb.Infer(ctx) },
		func(st deepdive.GraphStats) deepdive.Solved { return st.Inferred }, nil)
}

func BenchmarkLearnFromScratch(b *testing.B) {
	benchFromScratch(b, func(kb *deepdive.KB) (time.Duration, error) { return kb.Learn(ctx) },
		func(st deepdive.GraphStats) deepdive.Solved { return st.Learned }, nil)
}

// benchFromScratch times pass on News at 1× and 4× candidates. read, when
// set, is a first read after each pass, timed apart from it and reported
// per pass as first-read-ms.
func benchFromScratch(b *testing.B, pass func(*deepdive.KB) (time.Duration, error), solved func(deepdive.GraphStats) deepdive.Solved, read func(*deepdive.KB)) {
	for _, size := range []struct {
		name   string
		copies int
	}{{"x1", 0}, {"x4", 3}} {
		b.Run(size.name, func(b *testing.B) {
			kb := newWireCorpus(b, 3, 1, 0).withQueryOnlyCopies(size.copies).open(b, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			var reading time.Duration
			for i := 0; i < b.N; i++ {
				if _, err := pass(kb); err != nil {
					b.Fatal(err)
				}
				if read != nil {
					b.StopTimer()
					start := time.Now()
					read(kb)
					reading += time.Since(start)
					b.StartTimer()
				}
			}
			if read != nil {
				b.ReportMetric(float64(reading.Microseconds())/1e3/float64(b.N), "first-read-ms")
			}
			st := kb.Stats()
			b.ReportMetric(float64(st.QueryFacts), "free-vars")
			b.ReportMetric(float64(solved(st).Swept), "swept-vars")
		})
	}
}

// ---- Micro-benchmarks of the core machinery -------------------------

// benchGraph builds a pairwise graph for sampler micro-benchmarks.
func benchGraph(n int) *factor.Graph {
	b := factor.NewBuilder()
	vars := make([]factor.VarID, n)
	for i := range vars {
		vars[i] = b.AddVar()
	}
	w := b.AddWeight(0.4)
	for i := 0; i+1 < n; i++ {
		b.AddGroup(vars[i], w, factor.Ratio,
			[]factor.Grounding{{Lits: []factor.Literal{{Var: vars[i+1]}}}})
	}
	return b.MustBuild()
}

// BenchmarkGibbsSweep measures raw Gibbs throughput (the DimmWitted
// substrate's hot loop) on the sequential CSR-counter sampler.
func BenchmarkGibbsSweep(b *testing.B) {
	g := benchGraph(1000)
	s := gibbs.New(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep()
	}
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds(), "vars/s")
}

// BenchmarkGibbsSweepParallel measures the sharded sampler on the same
// synthetic chain, one worker per core.
func BenchmarkGibbsSweepParallel(b *testing.B) {
	g := benchGraph(1000)
	s := gibbs.NewParallel(g, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep()
	}
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds(), "vars/s")
}

// ---- Sampler throughput on the systems corpus --------------------------
//
// BenchmarkSamplerSequentialCorpus vs BenchmarkSamplerParallelCorpus is
// the before/after pair for the CSR + sharded-worker refactor: identical
// grounded News graph, sequential scan vs one worker shard per core. The
// samples/s metric counts variable resamples; with GOMAXPROCS >= 4 the
// parallel figure should be >= 2x the sequential one.

var (
	corpusGraphOnce sync.Once
	corpusGraphVal  *factor.Graph
)

// corpusGraph grounds a Quick-scale News system once (generation and
// grounding dominate otherwise) and returns its factor graph.
func corpusGraph(b *testing.B) *factor.Graph {
	b.Helper()
	corpusGraphOnce.Do(func() {
		spec := corpus.News()
		spec.NumDocs = 120
		if spec.TruePairsPerRel > 8 {
			spec.TruePairsPerRel = 8
		}
		if spec.FalsePairsPerRel > 24 {
			spec.FalsePairsPerRel = 24
		}
		g, err := kbc.Ground(corpus.Generate(spec), factor.Ratio, 0)
		if err != nil {
			panic(err)
		}
		corpusGraphVal = g.Graph()
	})
	return corpusGraphVal
}

// BenchmarkSamplerSequentialCorpus is the sequential baseline on the
// grounded News graph.
func BenchmarkSamplerSequentialCorpus(b *testing.B) {
	g := corpusGraph(b)
	s := gibbs.New(g, 1)
	s.RandomizeState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep()
	}
	b.ReportMetric(float64(s.NumFree()*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkSamplerParallelCorpus shards the same graph one worker per
// core.
func BenchmarkSamplerParallelCorpus(b *testing.B) {
	g := corpusGraph(b)
	s := gibbs.NewParallel(g, 0, 1)
	s.RandomizeState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep()
	}
	b.ReportMetric(float64(s.NumFree()*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkSamplingAcceptanceTest measures the per-proposal cost of the
// incremental Metropolis-Hastings acceptance test — the quantity the
// paper's cost model calls C(nf, f′).
func BenchmarkSamplingAcceptanceTest(b *testing.B) {
	g := benchGraph(1000)
	store := gibbs.New(g, 2).CollectSamples(10, 200)
	newG := factor.NewBuilderFrom(g).MustBuild()
	newG.SetWeight(0, 0.6)
	changed := make([]int32, newG.NumGroups())
	for i := range changed {
		changed[i] = int32(i)
	}
	cs := inc.ChangeSet{ChangedOld: changed, ChangedNew: changed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Reset()
		inc.SamplingInferCtx(nil, g, newG, store, cs, nil, nil, 100, 3)
	}
}

// BenchmarkVariationalMaterialize measures Algorithm 1 end to end on a
// moderately sized graph.
func BenchmarkVariationalMaterialize(b *testing.B) {
	g := benchGraph(300)
	store := gibbs.New(g, 4).CollectSamples(20, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.MaterializeVariational(g, store, inc.VariationalOptions{Lambda: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrawmanMaterialize measures complete materialization at its
// feasibility edge.
func BenchmarkStrawmanMaterialize(b *testing.B) {
	g := benchGraph(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.MaterializeStrawman(g); err != nil {
			b.Fatal(err)
		}
	}
}
