package deepdive_test

// The scoped finish stage against its GlobalFinish lesion, on the corpus
// the benchmark harness serves (bench/server.go wireSpec): scaled-down
// News, one or two sentences a document, streamed in as three inserts to
// one delete of an earlier insert.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/datalog"
	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/kbc"
)

// wireCorpus is a News corpus at a size factor, split into the documents
// a KB starts with and a stream of updates over the rest: every fourth
// update deletes the oldest still-present document inserted at least
// eight updates earlier, the others insert a fresh one.
type wireCorpus struct {
	seed   int64
	sys    *corpus.System
	base   map[string][]deepdive.Tuple // supervision KBs plus the loaded documents
	stream []deepdive.Update
}

func newWireCorpus(tb testing.TB, seed int64, f float64, n int) *wireCorpus {
	tb.Helper()
	spec := corpus.News()
	sc := func(v int, g float64, floor int) int { return max(int(math.Round(float64(v)*g)), floor) }
	spec.Seed = seed
	spec.SentencesPerDoc = [2]int{1, 2}
	spec.NumDocs = sc(spec.NumDocs, 0.1*f, 8)
	spec.TruePairsPerRel = sc(spec.TruePairsPerRel, 0.1*f, 4)
	spec.FalsePairsPerRel = sc(spec.FalsePairsPerRel, 0.1*f, 8)
	spec.NegPairsPerRel = sc(spec.NegPairsPerRel, 0.1*f, 3)
	spec.EntitiesPerType = sc(spec.EntitiesPerType, math.Sqrt(0.1*f), 12)
	w := &wireCorpus{seed: seed, sys: corpus.Generate(spec), stream: make([]deepdive.Update, n)}

	// The stream's shape: deleteOf[i] is the stream position of the insert
	// that update i deletes, or -1 when update i inserts.
	deleteOf := make([]int, n)
	var present []int // positions of the inserts not yet deleted
	inserts := 0
	for i := range deleteOf {
		if i%4 == 3 && len(present) > 0 && i-present[0] >= 8 {
			deleteOf[i], present = present[0], present[1:]
			continue
		}
		deleteOf[i], present = -1, append(present, i)
		inserts++
	}
	// The harness holds the last 40 % of the documents out; a stream that
	// needs more takes more.
	docs := make([]map[string][]deepdive.Tuple, len(w.sys.Docs))
	loaded := len(docs) - max(inserts, len(docs)*2/5)
	if loaded < len(docs)/4 {
		tb.Fatalf("a %d-update stream leaves %d of %d documents to start from", n, loaded, len(docs))
	}

	w.base = kbc.BaseTuples(w.sys)
	for rel, sidAt := range map[string]int{"Sentence": 0, "Mention": 1} {
		for _, t := range w.base[rel] {
			sid := t[sidAt] // "s<doc>_<sentence>"
			d, err := strconv.Atoi(sid[1:strings.IndexByte(sid, '_')])
			if err != nil {
				tb.Fatalf("sentence id %q: %v", sid, err)
			}
			if docs[d] == nil {
				docs[d] = map[string][]deepdive.Tuple{}
			}
			docs[d][rel] = append(docs[d][rel], t)
		}
		w.base[rel] = nil
	}
	for _, d := range docs[:loaded] {
		for rel, ts := range d {
			w.base[rel] = append(w.base[rel], ts...)
		}
	}
	next := loaded
	for i, at := range deleteOf {
		if at >= 0 {
			w.stream[i] = deepdive.Update{Deletes: w.stream[at].Inserts}
			continue
		}
		w.stream[i] = deepdive.Update{Inserts: docs[next]}
		next++
	}
	return w
}

// open grounds a KB over the corpus's program with the first upTo
// development iterations, loaded with the base tuples and with the net
// effect of the first applied stream updates, then learns and infers it
// from scratch.
func (w *wireCorpus) open(tb testing.TB, upTo, applied int, opts ...deepdive.Option) *deepdive.KB {
	tb.Helper()
	all := []deepdive.Option{deepdive.WithSeed(w.seed)}
	for name, udf := range kbc.UDFs() {
		all = append(all, deepdive.WithUDF(name, udf))
	}
	kb, err := deepdive.OpenKB(kbc.Program(w.sys, factor.Ratio, upTo), append(all, opts...)...)
	must(tb, err)
	tb.Cleanup(func() { kb.CloseNow() })
	deleted := map[string]bool{}
	for _, u := range w.stream[:applied] {
		for _, t := range u.Deletes["Sentence"] {
			deleted[t[0]] = true
		}
	}
	tuples := map[string][]deepdive.Tuple{}
	for rel, ts := range w.base {
		tuples[rel] = ts[:len(ts):len(ts)]
	}
	for _, u := range w.stream[:applied] {
		for rel, sidAt := range map[string]int{"Sentence": 0, "Mention": 1} {
			for _, t := range u.Inserts[rel] {
				if !deleted[t[sidAt]] {
					tuples[rel] = append(tuples[rel], t)
				}
			}
		}
	}
	for rel, ts := range tuples {
		must(tb, kb.Load(rel, ts))
	}
	must(tb, kb.Init(ctx))
	_, err = kb.Learn(ctx)
	must(tb, err)
	_, err = kb.Infer(ctx)
	must(tb, err)
	return kb
}

// materialized is open on the final program with nothing applied, ready
// for the stream.
func (w *wireCorpus) materialized(tb testing.TB, opts ...deepdive.Option) *deepdive.KB {
	tb.Helper()
	kb := w.open(tb, len(kbc.IterationNames), 0, opts...)
	_, err := kb.Materialize(ctx)
	must(tb, err)
	return kb
}

// factBits is every query fact's marginal, bit for bit.
func factBits(w *wireCorpus, kb *deepdive.KB) map[kbc.Fact]uint64 {
	out := map[kbc.Fact]uint64{}
	for f, p := range kbc.FactProbs(w.sys, kb) {
		out[f] = math.Float64bits(p)
	}
	return out
}

func scopeSeeds() []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

var globalFinish = deepdive.WithLesions(deepdive.Lesions{GlobalFinish: true})

// TestScopedFinishStream streams 150 document deltas into a default KB
// and into its GlobalFinish twin and holds the scoped finish stage to its
// contract after every update: it moves at most the weights it reports
// and none when it skips learning, it changes at most the marginals it
// reports dirty, and what it re-estimates agrees with the whole-graph
// finish; at the end of the stream it is as close to a from-scratch rerun
// as the whole-graph finish is.
func TestScopedFinishStream(t *testing.T) {
	const (
		updates = 150
		// Mean |scoped − global| over the facts a scoped update re-estimated
		// (measured 0.16–0.20). The two KBs learn along different paths —
		// the lesion retrains every weight on every update — so this is the
		// distance between two models, and the yardstick is the learner's
		// own noise: the GlobalFinish KB against itself under another seed
		// ends the stream 0.20–0.29 apart.
		dirtyTolerance = 0.25
	)
	var gapScoped, gapGlobal, ovScoped, ovGlobal float64
	for _, seed := range scopeSeeds() {
		w := newWireCorpus(t, seed, 1, updates)
		scoped, global := w.materialized(t), w.materialized(t, globalFinish)
		prevW, prevM := scoped.Weights(), factBits(w, scoped)
		skipped, whole := 0, 0
		var diffSum float64
		var diffN int
		for i, u := range w.stream {
			res, err := scoped.Apply(ctx, u)
			must(t, err)
			_, err = global.Apply(ctx, u)
			must(t, err)
			vars := scoped.Stats().Variables
			if res.ScopeVars > vars/2 && res.ScopeVars != vars || res.DirtyVars > vars/2 && res.DirtyVars != vars {
				t.Fatalf("seed %d update %d: a scope beyond half of %d variables was not the graph: %+v", seed, i, vars, res)
			}
			if res.DirtyVars == vars {
				whole++
			}

			// Weights: at most LearnedWeights moved; a skipped learning stage
			// (a delta whose components hold no evidence) moved none and took
			// no time.
			curW := scoped.Weights()
			moved := 0
			for k := range prevW {
				if math.Float64bits(curW[k]) != math.Float64bits(prevW[k]) {
					moved++
				}
			}
			if moved > res.LearnedWeights {
				t.Fatalf("seed %d update %d: %d weights moved, %d were learnable: %+v", seed, i, moved, res.LearnedWeights, res)
			}
			if res.ScopeVars == 0 {
				skipped++
				if res.LearnTime != 0 || res.LearnedWeights != 0 {
					t.Fatalf("seed %d update %d: learning skipped, yet: %+v", seed, i, res)
				}
			}

			// Marginals: a fact served before and after changed only if it
			// was dirty, and the dirty ones track the whole-graph finish.
			curM, globalM := factBits(w, scoped), kbc.FactProbs(w.sys, global)
			changed := 0
			for f, bits := range curM {
				old, ok := prevM[f]
				if ok && old == bits {
					continue
				}
				changed++
				if g, ok := globalM[f]; ok {
					diffSum += math.Abs(math.Float64frombits(bits) - g)
					diffN++
				}
			}
			if changed > res.DirtyVars {
				t.Fatalf("seed %d update %d: %d marginals changed, %d were dirty: %+v", seed, i, changed, res.DirtyVars, res)
			}
			prevW, prevM = curW, curM
		}
		if skipped == 0 || skipped == updates {
			t.Errorf("seed %d: learning was skipped on %d of %d updates; the stream should hold both kinds", seed, skipped, updates)
		}
		if whole > updates/10 {
			t.Errorf("seed %d: %d of %d document deltas re-estimated the whole graph", seed, whole, updates)
		}
		if mean := diffSum / float64(diffN); mean > dirtyTolerance {
			t.Errorf("seed %d: dirty marginals are %.3f from the whole-graph finish on the stream mean (%d facts), want ≤ %.2f", seed, mean, diffN, dirtyTolerance)
		}

		rerun := w.open(t, len(kbc.IterationNames), updates)
		rerunF1, rerunP := kbc.Evaluate(w.sys, rerun, 0.5).F1, kbc.FactProbs(w.sys, rerun)
		gs, gg := rerunF1-kbc.Evaluate(w.sys, scoped, 0.5).F1, rerunF1-kbc.Evaluate(w.sys, global, 0.5).F1
		os, og := highConfAgreement(rerunP, kbc.FactProbs(w.sys, scoped)), highConfAgreement(rerunP, kbc.FactProbs(w.sys, global))
		t.Logf("seed %d: learning skipped on %d updates, whole-graph inference on %d, dirty marginals %.3f from global; F1 gap to the rerun %+.3f scoped, %+.3f global; > 0.7 overlap %.3f scoped, %.3f global",
			seed, skipped, whole, diffSum/float64(diffN), gs, gg, os, og)
		gapScoped, gapGlobal, ovScoped, ovGlobal = gapScoped+gs, gapGlobal+gg, ovScoped+os, ovGlobal+og
	}
	n := float64(len(scopeSeeds()))
	if gapScoped/n > gapGlobal/n+0.01 {
		t.Errorf("end-of-stream F1 gap to the rerun: %.3f scoped vs %.3f global, want no worse than +0.01", gapScoped/n, gapGlobal/n)
	}
	if ovScoped/n < ovGlobal/n-0.03 {
		t.Errorf("end-of-stream > 0.7 overlap with the rerun: %.3f scoped vs %.3f global, want no lower than −0.03", ovScoped/n, ovGlobal/n)
	}
}

// highConfAgreement is the share of one KB's facts above 0.7 that the
// other also holds above 0.7, averaged over both directions.
func highConfAgreement(a, b map[kbc.Fact]float64) float64 {
	ov := kbc.CompareFacts(a, b, 0.7, 0.05)
	return (ov.HighConfOverlapAB + ov.HighConfOverlapBA) / 2
}

// withQueryOnlyCopies is the corpus with every loaded document repeated
// copies more times under fresh sentence, mention and entity ids: the
// copies' candidates carry the originals' features — the same tied weights
// — but no knowledge base names their entities, so they are query-only.
func (w *wireCorpus) withQueryOnlyCopies(copies int) *wireCorpus {
	out := *w
	out.base = map[string][]deepdive.Tuple{}
	for rel, ts := range w.base {
		out.base[rel] = ts[:len(ts):len(ts)]
	}
	for k := 1; k <= copies; k++ {
		tag := fmt.Sprint("x", k)
		for _, t := range w.base["Sentence"] {
			out.base["Sentence"] = append(out.base["Sentence"], deepdive.Tuple{t[0] + tag, t[1]})
		}
		for _, t := range w.base["Mention"] { // (m:<sid>:<start>:<end>, sid, type, entity)
			mid := strings.Replace(t[0], ":"+t[1]+":", ":"+t[1]+tag+":", 1)
			out.base["Mention"] = append(out.base["Mention"], deepdive.Tuple{mid, t[1] + tag, t[2], t[3] + tag})
		}
	}
	return &out
}

// TestRuleUpdateLearnsOnEvidenceScope: a rule that grounds on every
// candidate dirties every marginal, but what it can teach the model lies
// in the evidence-bearing components. FE1 learns on exactly those — the
// same subgraph and the same weights with four times the query-only
// candidates around them — and every weight it could not inform stays bit
// for bit what it was; under GlobalFinish it still takes the whole graph.
// The expected scope and W_R are read off a bare grounder taken through
// the same two steps.
func TestRuleUpdateLearnsOnEvidenceScope(t *testing.T) {
	plain := newWireCorpus(t, 1, 1, 0)
	fe1 := kbc.IterationRules(plain.sys, "FE1")
	var scopes, learned [2]int
	for i, copies := range []int{0, 3} {
		w := plain.withQueryOnlyCopies(copies)

		gr, err := ground.New(datalog.MustParse(kbc.Program(w.sys, factor.Ratio, 1)), kbc.UDFs())
		must(t, err)
		for rel, ts := range w.base {
			must(t, gr.LoadBase(rel, ts))
		}
		must(t, gr.Ground())
		gr.Graph()
		rules, err := datalog.ParseRules(gr.Program(), fe1)
		must(t, err)
		_, err = gr.ApplyUpdate(ground.Update{NewRules: rules})
		must(t, err)
		g := gr.Graph()
		evidence := g.NewReach(false)
		for v := 0; v < g.NumVars(); v++ {
			evidence.Grow(factor.VarID(v), true)
		}
		learnable := make([]bool, g.NumWeights())
		for _, wid := range gr.LearnableWeights() {
			learnable[wid] = true
		}
		inWR, sizeWR := make([]bool, g.NumWeights()), 0
		for _, v := range evidence.Vars {
			for _, gi := range g.AdjacentGroups(v) {
				if wid := g.GroupWeight(int(gi)); learnable[wid] && !inWR[wid] {
					inWR[wid] = true
					sizeWR++
				}
			}
		}
		if len(evidence.Vars) == 0 || 2*len(evidence.Vars) > g.NumVars() || sizeWR == len(gr.LearnableWeights()) {
			t.Fatalf("%d copies: %d of %d variables in evidence-bearing components, %d of %d learnable weights on them: not the case under test",
				copies, len(evidence.Vars), g.NumVars(), sizeWR, len(gr.LearnableWeights()))
		}

		kb := w.open(t, 1, 0) // the base program: FE1 not yet in
		_, err = kb.Materialize(ctx)
		must(t, err)
		before := kb.Weights()
		res, err := kb.Apply(ctx, deepdive.Update{RuleSource: fe1})
		must(t, err)
		vars, after := kb.Stats().Variables, kb.Weights()
		if vars != g.NumVars() || len(after) != g.NumWeights() {
			t.Fatalf("%d copies: the KB holds %d variables and %d weights, the bare grounder %d and %d", copies, vars, len(after), g.NumVars(), g.NumWeights())
		}
		if res.ScopeVars != len(evidence.Vars) || res.LearnedWeights != sizeWR || res.DirtyVars != vars {
			t.Fatalf("%d copies: FE1 learned %d weights on %d variables and re-estimated %d; want %d on %d, and all %d: %+v",
				copies, res.LearnedWeights, res.ScopeVars, res.DirtyVars, sizeWR, len(evidence.Vars), vars, res)
		}
		moved := 0
		for wid, x := range after {
			was := g.Weight(factor.WeightID(wid)) // a weight FE1 created: its initial value
			if wid < len(before) {
				was = before[wid]
			}
			if math.Float64bits(x) == math.Float64bits(was) {
				continue
			}
			moved++
			if !inWR[wid] {
				t.Fatalf("%d copies: weight %d, on no evidence-bearing component, moved from %v to %v", copies, wid, was, x)
			}
		}
		if moved == 0 {
			t.Fatalf("%d copies: FE1 moved no weight", copies)
		}
		scopes[i], learned[i] = res.ScopeVars, res.LearnedWeights

		lesion := w.open(t, 1, 0, globalFinish)
		_, err = lesion.Materialize(ctx)
		must(t, err)
		res, err = lesion.Apply(ctx, deepdive.Update{RuleSource: fe1})
		must(t, err)
		if res.ScopeVars != vars || res.DirtyVars != vars || res.LearnedWeights != len(gr.LearnableWeights()) {
			t.Fatalf("%d copies: under GlobalFinish FE1 did not take the whole %d-variable graph and its %d learnable weights: %+v", copies, vars, len(gr.LearnableWeights()), res)
		}
		t.Logf("%d copies: %d variables, learning scope %d, %d of %d learnable weights, %d moved", copies, vars, scopes[i], learned[i], len(gr.LearnableWeights()), moved)
	}
	if scopes[0] != scopes[1] || learned[0] != learned[1] {
		t.Fatalf("four times the query-only candidates changed the learning scope: %d variables and %d weights, then %d and %d", scopes[0], learned[0], scopes[1], learned[1])
	}
}

// TestGiantComponentScopesToTheGraph: when an inference rule chains every
// candidate into one connected component, the smallest delta's scope is
// that component — the whole graph, read off the input.
func TestGiantComponentScopesToTheGraph(t *testing.T) {
	const items = 40
	kb, err := deepdive.OpenKB(`
@relation Item(x).
@relation Next(x, y).
@relation Label(x).
@variable Q(x).
@relation Q_Ev(x, label).
Cand: Q(x) :- Item(x).
Bias: Q(x) :- Item(x) weight = w().
Chain: Q(x) :- Q(y), Next(x, y) weight = 0.8.
Sup: Q_Ev(x, true) :- Q(x), Label(x).
`, deepdive.WithSeed(1))
	must(t, err)
	t.Cleanup(func() { kb.CloseNow() })
	var its, nexts []deepdive.Tuple
	for i := 0; i < items; i++ {
		its = append(its, deepdive.Tuple{fmt.Sprint("i", i)})
		if i > 0 {
			nexts = append(nexts, deepdive.Tuple{fmt.Sprint("i", i), fmt.Sprint("i", i-1)})
		}
	}
	must(t, kb.Load("Item", its))
	must(t, kb.Load("Next", nexts))
	must(t, kb.Load("Label", []deepdive.Tuple{{"i0"}, {"i7"}}))
	must(t, kb.Init(ctx))
	for _, stage := range []func() error{
		func() error { _, err := kb.Learn(ctx); return err },
		func() error { _, err := kb.Infer(ctx); return err },
		func() error { _, err := kb.Materialize(ctx); return err },
	} {
		must(t, stage())
	}
	res, err := kb.Apply(ctx, deepdive.Update{Inserts: map[string][]deepdive.Tuple{
		"Item": {{"tail"}},
		"Next": {{"tail", fmt.Sprint("i", items-1)}},
	}})
	must(t, err)
	if vars := kb.Stats().Variables; vars != items+1 || res.ScopeVars != vars || res.DirtyVars != vars {
		t.Fatalf("one appended item on a %d-variable chain: %+v", vars, res)
	}
}
