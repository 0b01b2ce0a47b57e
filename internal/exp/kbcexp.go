package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
	"deepdive/internal/kbc"
	"deepdive/internal/learn"
)

// The KBC experiments run the development loop a deployment runs:
// deepdive.KB's Learn/Infer/Materialize/Apply. The incremental side
// materializes the base program once and applies the six iterations as
// rule updates; the Rerun baseline is a fresh KB on the longer program,
// learned and inferred from scratch. Each figure first computes its rows
// as values (which the tests assert on) and then formats them.

// threshold is the extraction threshold F1 is scored at.
const threshold = 0.5

// finalProgram is the upTo of the program with every iteration in it.
var finalProgram = len(kbc.IterationNames)

// kbOptions is the shared KB configuration for KBC experiments, sized
// for second-scale runs.
func kbOptions(seed int64, extra ...deepdive.Option) []deepdive.Option {
	return append([]deepdive.Option{
		deepdive.WithSeed(seed),
		deepdive.WithLearning(8, 0.25),
		deepdive.WithInference(15, 150),
		deepdive.WithMaterialization(500, 0.01),
	}, extra...)
}

// news is the system the single-system figures use.
func news(sc Scale) *corpus.System { return systems(sc)[1] }

func f1(sys *corpus.System, kb *deepdive.KB) float64 {
	return kbc.Evaluate(sys, kb, threshold).F1
}

// rerun is the paper's Rerun baseline: a fresh KB over the program with
// the first upTo iterations, learned and inferred from scratch. It
// returns the learn and the inference time (their sum is the quantity
// Figure 9 reports) and the KB, which the caller closes.
func rerun(sys *corpus.System, sem factor.Semantics, upTo int, opts []deepdive.Option) (kb *deepdive.KB, learnT, inferT time.Duration, err error) {
	ctx := context.Background()
	if kb, err = kbc.OpenKB(sys, sem, upTo, opts...); err != nil {
		return nil, 0, 0, err
	}
	if learnT, err = kb.Learn(ctx); err == nil {
		inferT, err = kb.Infer(ctx)
	}
	if err != nil {
		kb.Close()
		return nil, 0, 0, err
	}
	return kb, learnT, inferT, nil
}

// materialized is rerun taken on to the update-ready state.
func materialized(sys *corpus.System, upTo int, opts []deepdive.Option) (*deepdive.KB, error) {
	kb, _, _, err := rerun(sys, factor.Ratio, upTo, opts)
	if err != nil {
		return nil, err
	}
	if _, err := kb.Materialize(context.Background()); err != nil {
		kb.Close()
		return nil, err
	}
	return kb, nil
}

// step is one development iteration applied incrementally.
type step struct {
	Rule string
	deepdive.UpdateResult
	F1 float64
}

// develop materializes the base program and applies the six development
// iterations through KB.Apply, handing each to visit as it lands.
func develop(sys *corpus.System, opts []deepdive.Option, visit func(k int, st step) error) error {
	kb, err := materialized(sys, 0, opts)
	if err != nil {
		return err
	}
	defer kb.Close()
	for k, rule := range kbc.IterationNames {
		res, err := kb.Apply(context.Background(), deepdive.Update{RuleSource: kbc.IterationRules(sys, rule)})
		if err != nil {
			return fmt.Errorf("%s %s: %w", sys.Spec.Name, rule, err)
		}
		if err := visit(k, step{rule, *res, f1(sys, kb)}); err != nil {
			return err
		}
	}
	return nil
}

// loopRow is one development iteration run both ways: incrementally on
// the materialized KB, and from scratch on the program grown by it.
type loopRow struct {
	System, Rule         string
	Rerun, Inc           time.Duration // learn + inference time
	RerunLearn, IncLearn time.Duration // the learning part of each
	RerunF1              float64
	IncF1                float64
	Strategy             deepdive.Strategy
}

// devLoop runs the Rerun-vs-Incremental comparison on one system. Each
// iteration's rerun follows its incremental update directly, so that a
// busy stretch on the machine slows both sides of the comparison.
func devLoop(sys *corpus.System, seed int64) ([]loopRow, error) {
	opts := kbOptions(seed)
	var rows []loopRow
	err := develop(sys, opts, func(k int, st step) error {
		kb, learnT, inferT, err := rerun(sys, factor.Ratio, k+1, opts)
		if err != nil {
			return fmt.Errorf("%s %s: rerun: %w", sys.Spec.Name, st.Rule, err)
		}
		defer kb.Close()
		rows = append(rows, loopRow{
			System: sys.Spec.Name, Rule: st.Rule,
			Rerun: learnT + inferT, Inc: st.LearnTime + st.InferTime,
			RerunLearn: learnT, IncLearn: st.LearnTime,
			RerunF1: f1(sys, kb), IncF1: st.F1,
			Strategy: st.Strategy,
		})
		return nil
	})
	return rows, err
}

// Fig7 reproduces the Figure 7 statistics table for the five systems,
// grounded with the full rule inventory.
func Fig7(sc Scale, seed int64) *Report {
	r := &Report{Title: "Figure 7: statistics of the KBC systems (scaled ~2000x)"}
	r.addf("%-14s %8s %6s %7s %9s %10s", "System", "#Docs", "#Rels", "#Rules", "#Vars", "#Factors")
	for _, sys := range systems(sc) {
		g, err := kbc.Ground(sys, factor.Ratio, finalProgram)
		if err != nil {
			r.addf("%-14s error: %v", sys.Spec.Name, err)
			continue
		}
		r.addf("%-14s %8d %6d %7d %9d %10d",
			sys.Spec.Name, len(sys.Docs), len(sys.Spec.Relations),
			len(g.Program().Rules), g.NumVars(), g.NumGroundings())
	}
	return r
}

func fig9Rows(sc Scale, seed int64) ([]loopRow, error) {
	var rows []loopRow
	for _, sys := range systems(sc) {
		sysRows, err := devLoop(sys, seed)
		if err != nil {
			return rows, err
		}
		rows = append(rows, sysRows...)
	}
	return rows, nil
}

// Fig9 reproduces the Figure 9 table: per rule category and per system,
// the inference+learning time of Rerun vs. Incremental, with the
// speedup factor.
func Fig9(sc Scale, seed int64) *Report {
	r := &Report{Title: "Figure 9: end-to-end efficiency of incremental inference and learning"}
	r.addf("%-14s %-5s %12s %12s %8s  %-12s", "System", "Rule", "Rerun", "Incremental", "Speedup", "Strategy")
	rows, err := fig9Rows(sc, seed)
	for _, row := range rows {
		r.addf("%-14s %-5s %12s %12s %8s  %-12s",
			row.System, row.Rule, ms(row.Rerun), ms(row.Inc), speedup(row.Rerun, row.Inc), row.Strategy)
	}
	if err != nil {
		r.addf("error: %v", err)
	}
	return r
}

// Fig10a reproduces Figure 10(a): quality (F1) against cumulative
// execution time for Rerun and Incremental on the News system.
func Fig10a(sc Scale, seed int64) *Report {
	r := &Report{Title: "Figure 10(a): quality improvement over cumulative time (News)"}
	r.addf("%-5s %14s %8s   %14s %8s", "Rule", "rerun-cum", "F1", "inc-cum", "F1")
	rows, err := devLoop(news(sc), seed)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	var rerunCum, incCum time.Duration
	for _, row := range rows {
		rerunCum += row.Rerun
		incCum += row.Inc
		r.addf("%-5s %14s %8.3f   %14s %8.3f",
			row.Rule, ms(rerunCum), row.RerunF1, ms(incCum), row.IncF1)
	}
	r.addf("(same quality trajectory, delivered faster — the 22x claim at paper scale)")
	return r
}

// Fig10b reproduces Figure 10(b): F1 of the three semantics per system.
func Fig10b(sc Scale, seed int64) *Report {
	r := &Report{Title: "Figure 10(b): quality (F1) of different semantics"}
	sysList := systems(sc)
	header := fmt.Sprintf("%-9s", "Sem")
	for _, sys := range sysList {
		header += fmt.Sprintf(" %12s", sys.Spec.Name)
	}
	r.Lines = append(r.Lines, header)
	for _, sem := range []factor.Semantics{factor.Linear, factor.Logical, factor.Ratio} {
		line := fmt.Sprintf("%-9s", sem)
		for _, sys := range sysList {
			kb, _, _, err := rerun(sys, sem, finalProgram, kbOptions(seed))
			if err != nil {
				line += fmt.Sprintf(" %12s", "err")
				continue
			}
			line += fmt.Sprintf(" %12.3f", f1(sys, kb))
			kb.Close()
		}
		r.Lines = append(r.Lines, line)
	}
	return r
}

// Fig6Lambdas is the regularization sweep of Figure 6.
var Fig6Lambdas = []float64{0.001, 0.01, 0.1, 1, 10}

// Fig6 reproduces Figure 6: quality (F1) and the approximate graph's
// factor count under different variational regularization parameters, on
// the News system with a supervision update (the workload that routes to
// the variational strategy). The KB solves S1's dirty components exactly
// and never fits its approximation, so the factor count is read off an
// engine built on the inc layer alone over the same learned graph — the
// approximation the KB's Materialize would fit.
func Fig6(sc Scale, lambdas []float64, seed int64) *Report {
	r := &Report{Title: "Figure 6: variational λ sweep on News (quality and #factors)"}
	r.addf("%10s %10s %10s %12s", "lambda", "F1", "#factors", "inf-time")
	sys := news(sc)
	for _, lambda := range lambdas {
		// Materialize a mature graph (through I1, which contributes the
		// pairwise correlations the relaxation sparsifies), then apply the
		// supervision rule S1 — the workload that routes to variational.
		graph, err := learned(sys, 4, seed)
		if err != nil {
			r.addf("λ=%g: %v", lambda, err)
			continue
		}
		eng, err := inc.NewEngine(graph, inc.Options{MaterializationSamples: 500, Burnin: 15, KeepSamples: 150, Lambda: lambda, Seed: seed + 3})
		if err != nil {
			r.addf("λ=%g: %v", lambda, err)
			continue
		}
		kb, err := materialized(sys, 4, kbOptions(seed, deepdive.WithMaterialization(500, lambda)))
		if err != nil {
			r.addf("λ=%g: %v", lambda, err)
			continue
		}
		res, err := kb.Apply(context.Background(), deepdive.Update{RuleSource: kbc.IterationRules(sys, "S1")})
		if err != nil {
			r.addf("λ=%g: %v", lambda, err)
		} else {
			r.addf("%10g %10.3f %10d %12s", lambda, f1(sys, kb), eng.Variational().NumFactors(), ms(res.InferTime))
		}
		kb.Close()
	}
	r.addf("(small λ: dense approximation; large λ: sparse and fast, quality degrades past the safe region)")
	return r
}

// lesionRows runs the development loop on News once per lesion and
// returns the runs side by side: rows[i][v] is iteration i under
// variants[v].
func lesionRows(sc Scale, seed int64, variants []deepdive.Lesions) ([][]step, error) {
	sys := news(sc)
	rows := make([][]step, len(kbc.IterationNames))
	for _, l := range variants {
		err := develop(sys, kbOptions(seed, deepdive.WithLesions(l)), func(k int, st step) error {
			rows[k] = append(rows[k], st)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// fig11Variants are the columns of Figure 11: the full optimizer,
// NoSampling, NoRelaxation (variational disabled) and NoWorkloadInfo.
var fig11Variants = []deepdive.Lesions{{}, {NoSampling: true}, {NoVariational: true}, {NoWorkloadInfo: true}}

// Fig11 reproduces the Figure 11 lesion study on one system: inference
// time per rule with the full optimizer vs. NoSampling vs. NoRelaxation
// (variational disabled) vs. NoWorkloadInfo.
func Fig11(sc Scale, seed int64) *Report {
	r := &Report{Title: "Figure 11: lesion study of the materialization tradeoff (News)"}
	r.addf("%-5s %12s %12s %12s %12s", "Rule", "Full", "NoSampling", "NoRelax", "NoWorkload")
	rows, err := lesionRows(sc, seed, fig11Variants)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	for _, row := range rows {
		r.addf("%-5s %12s %12s %12s %12s", row[0].Rule,
			ms(row[0].InferTime), ms(row[1].InferTime), ms(row[2].InferTime), ms(row[3].InferTime))
	}
	return r
}

// fig14Variants are the columns of Figure 14: the sampling approach with
// and without the Algorithm 2 decomposition. Both run with the
// variational side off, so that every update the optimizer sees takes the
// acceptance test the figure is about: on the default loop the optimizer
// measures the undecomposed test's collapse and routes the update to
// variational. With the decomposition every component of these graphs is
// solved exactly, so that column accepts everything.
var fig14Variants = []deepdive.Lesions{{NoVariational: true}, {NoVariational: true, NoDecomposition: true}}

// Fig14 reproduces the Figure 14 lesion: inference time with and without
// the Algorithm 2 decomposition, on a loop that samples whatever it does
// not solve exactly.
func Fig14(sc Scale, seed int64) *Report {
	r := &Report{Title: "Figure 14: lesion study of decomposition (News, sampling forced)"}
	r.addf("%-5s %12s %16s %14s %14s", "Rule", "Sampling", "NoDecomposition", "acc(Sampling)", "acc(NoDec)")
	rows, err := lesionRows(sc, seed, fig14Variants)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	for _, row := range rows {
		r.addf("%-5s %12s %16s %14.2f %14.2f", row[0].Rule,
			ms(row[0].InferTime), ms(row[1].InferTime), row[0].Acceptance, row[1].Acceptance)
	}
	r.addf("(both columns run with the variational strategy off: without decomposition, any change")
	r.addf(" collapses the global acceptance test; the default loop would route it to variational)")
	return r
}

// Fig15 reproduces Figure 15: how many samples each system materializes
// within a fixed wall-clock budget (the paper's 8 hours, scaled to the
// given budget). It measures the inc layer alone, on a bare grounder.
func Fig15(sc Scale, budget time.Duration, seed int64) *Report {
	r := &Report{Title: fmt.Sprintf("Figure 15: samples materialized within %v", budget)}
	r.addf("%-14s %12s", "System", "#Samples")
	for _, sys := range systems(sc) {
		n, err := samplesWithin(sys, budget, seed)
		if err != nil {
			r.addf("%-14s error: %v", sys.Spec.Name, err)
			continue
		}
		r.addf("%-14s %12d", sys.Spec.Name, n)
	}
	return r
}

// learned grounds the program with the first upTo iterations on a bare
// grounder and learns its weights as KB.Learn does under kbOptions.
func learned(sys *corpus.System, upTo int, seed int64) (*factor.Graph, error) {
	g, err := kbc.Ground(sys, factor.Ratio, upTo)
	if err != nil {
		return nil, err
	}
	graph := g.Graph()
	frozen := make([]bool, graph.NumWeights())
	for i := range frozen {
		frozen[i] = true
	}
	warm := append([]float64(nil), graph.Weights()...)
	for _, w := range g.LearnableWeights() {
		frozen[w] = false
		warm[w] = 0
	}
	learn.Train(graph, learn.Options{Epochs: 8, StepSize: 0.25, Seed: seed + 1, Warmstart: warm, Frozen: frozen})
	return graph, nil
}

// samplesWithin learns the base program's weights and counts the sample
// worlds the incremental engine stores within budget.
func samplesWithin(sys *corpus.System, budget time.Duration, seed int64) (int, error) {
	graph, err := learned(sys, 0, seed)
	if err != nil {
		return 0, err
	}
	eng, err := inc.NewEngine(graph, inc.Options{
		MaterializationSamples: 10, // the budget loop does the real work
		Burnin:                 15,
		KeepSamples:            150,
		Seed:                   seed + 3,
	})
	if err != nil {
		return 0, err
	}
	return eng.MaterializeForBudget(budget), nil
}

// Grounding reproduces the incremental-grounding claim of Sections 1/4.2
// (up to 360× for FE1 on News at paper scale): time to fold a new-document
// delta into the grounding incrementally versus re-grounding from
// scratch. It measures the ground layer alone.
func Grounding(sc Scale, seed int64) *Report {
	r := &Report{Title: "Incremental grounding: delta evaluation vs. full re-grounding (News + FE1)"}
	sys := news(sc)
	// Through FE1, so the delta has feature work to do.
	g, err := kbc.Ground(sys, factor.Ratio, 2)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}

	// The delta: one new document's worth of base tuples.
	extra := corpus.Generate(func() corpus.Spec {
		s := sys.Spec
		s.Seed += 999
		s.NumDocs = 2
		s.TruePairsPerRel = 2
		s.FalsePairsPerRel = 2
		return s
	}())
	delta := kbc.BaseTuples(extra)
	// Rename sentence and mention ids so they do not collide with the
	// existing corpus (mid format: m:<sid>:<start>:<end>).
	ins := map[string][]db.Tuple{}
	for _, t := range delta["Sentence"] {
		ins["Sentence"] = append(ins["Sentence"], db.Tuple{"x" + t[0], t[1]})
	}
	for _, t := range delta["Mention"] {
		newMid := "m:x" + strings.TrimPrefix(t[0], "m:")
		ins["Mention"] = append(ins["Mention"], db.Tuple{newMid, "x" + t[1], t[2], t[3]})
	}

	start := time.Now()
	if _, err := g.ApplyUpdate(ground.Update{Inserts: ins}); err != nil {
		r.addf("incremental error: %v", err)
		return r
	}
	incTime := time.Since(start)

	// From scratch: a fresh grounder loaded with the corpus and the delta.
	full, err := kbc.Load(sys, factor.Ratio, 2)
	if err == nil {
		for rel, ts := range ins {
			if err = full.LoadBase(rel, ts); err != nil {
				break
			}
		}
	}
	if err != nil {
		r.addf("full reground error: %v", err)
		return r
	}
	start = time.Now()
	if err := full.Ground(); err != nil {
		r.addf("full reground error: %v", err)
		return r
	}
	fullTime := time.Since(start)

	r.addf("full re-grounding: %s", ms(fullTime))
	r.addf("incremental delta: %s", ms(incTime))
	r.addf("speedup:           %s", speedup(fullTime, incTime))
	return r
}
