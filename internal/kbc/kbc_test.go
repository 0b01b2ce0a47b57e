package kbc

import (
	"context"
	"strings"
	"testing"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/datalog"
	"deepdive/internal/factor"
)

// smallSystem is a fast test corpus: one relation, compact.
func smallSystem() *corpus.System {
	spec := corpus.Genomics()
	spec.NumDocs = 20
	spec.EntitiesPerType = 14
	spec.TruePairsPerRel = 8
	spec.FalsePairsPerRel = 24
	spec.Seed = 77
	return corpus.Generate(spec)
}

func testOptions() []deepdive.Option {
	return []deepdive.Option{
		deepdive.WithSeed(5),
		deepdive.WithLearning(10, 0.25),
		deepdive.WithInference(15, 150),
		deepdive.WithMaterialization(500, 0.01),
	}
}

// openKB opens the test system's KB with the first upTo iterations in
// its program, learned and inferred from scratch. extra options override
// testOptions.
func openKB(t *testing.T, sys *corpus.System, upTo int, extra ...deepdive.Option) *deepdive.KB {
	t.Helper()
	kb, err := OpenKB(sys, factor.Ratio, upTo, append(testOptions(), extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	if _, err := kb.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Infer(ctx); err != nil {
		t.Fatal(err)
	}
	return kb
}

// develop materializes kb and applies the six development iterations.
func develop(t *testing.T, sys *corpus.System, kb *deepdive.KB) {
	t.Helper()
	if _, err := kb.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	for _, it := range IterationNames {
		res, err := kb.Apply(ctx, deepdive.Update{RuleSource: IterationRules(sys, it)})
		if err != nil {
			t.Fatalf("%s: %v", it, err)
		}
		t.Logf("%s: F1=%.3f strategy=%v acc=%.2f ground=%v learn=%v infer=%v",
			it, Evaluate(sys, kb, 0.5).F1, res.Strategy, res.Acceptance,
			res.GroundTime, res.LearnTime, res.InferTime)
	}
}

var ctx = context.Background()

// TestIterationRulesParse: every prefix of every system's development
// loop parses, and datalog.ParseRules — what a rule update goes through —
// yields for each of the 6 × 5 iterations exactly the rules the
// whole-program parse appends: the same source, kind and semantics.
func TestIterationRulesParse(t *testing.T) {
	for _, sys := range corpus.AllSystems() {
		src := BaseProgram(sys, factor.Ratio)
		prog, err := datalog.Parse(src)
		if err != nil {
			t.Fatalf("%s base program: %v", sys.Spec.Name, err)
		}
		for _, it := range IterationNames {
			rules := IterationRules(sys, it)
			src += rules
			full, err := datalog.Parse(src)
			if err != nil {
				t.Fatalf("%s through %s: %v", sys.Spec.Name, it, err)
			}
			got, err := datalog.ParseRules(prog, rules)
			if err != nil {
				t.Fatalf("%s %s: ParseRules: %v", sys.Spec.Name, it, err)
			}
			want := full.Rules[len(prog.Rules):]
			if len(got) != len(want) {
				t.Fatalf("%s %s: ParseRules gives %d rules, the whole-program parse %d", sys.Spec.Name, it, len(got), len(want))
			}
			for i, r := range got {
				if r.String() != want[i].String() || r.Kind != want[i].Kind || prog.SemOf(r) != full.SemOf(want[i]) {
					t.Fatalf("%s %s rule %d:\n got %v (%v)\nwant %v (%v)", sys.Spec.Name, it, i, r, r.Kind, want[i], want[i].Kind)
				}
			}
			if len(got) > 0 {
				if _, err := datalog.ParseRules(full, rules); err == nil || !strings.Contains(err.Error(), "duplicate rule label") {
					t.Fatalf("%s %s applied twice: %v, want a duplicate-label refusal", sys.Spec.Name, it, err)
				}
			}
			prog = full
		}
	}
}

func TestParseMentionID(t *testing.T) {
	sid, s, e, ok := ParseMentionID("m:s3_1:2:4")
	if !ok || sid != "s3_1" || s != 2 || e != 4 {
		t.Fatalf("ParseMentionID = %q %d %d %v", sid, s, e, ok)
	}
	for _, bad := range []string{"", "m:x:1", "x:s:1:2", "m:s:a:2"} {
		if _, _, _, ok := ParseMentionID(bad); ok {
			t.Fatalf("bad mention id %q accepted", bad)
		}
	}
}

func TestUDFsAreDeterministicAndTotal(t *testing.T) {
	udfs := UDFs()
	args := []string{"m:s0_0:0:3", "m:s0_0:6:7", "Barack Person1 Ashford and his wife Michelle were married"}
	for name, f := range udfs {
		a := f(args)
		b := f(args)
		if a != b || a == "" {
			t.Fatalf("%s: %q vs %q", name, a, b)
		}
		if got := f([]string{"junk", "junk", "words"}); got != "bad" {
			t.Fatalf("%s on junk = %q, want bad", name, got)
		}
	}
	if p := udfs["phrase"](args); p != "and_his_wife" {
		t.Fatalf("phrase = %q", p)
	}
}

func TestBaseTuplesShape(t *testing.T) {
	sys := smallSystem()
	base := BaseTuples(sys)
	if len(base["Sentence"]) == 0 || len(base["Mention"]) == 0 {
		t.Fatal("no sentences or mentions extracted")
	}
	// Each mention's sid must reference an existing sentence.
	sids := map[string]bool{}
	for _, s := range base["Sentence"] {
		sids[s[0]] = true
	}
	for _, m := range base["Mention"] {
		if !sids[m[1]] {
			t.Fatalf("mention %v references unknown sentence", m)
		}
		if _, _, _, ok := ParseMentionID(m[0]); !ok {
			t.Fatalf("malformed mention id %q", m[0])
		}
	}
	for _, r := range sys.Spec.Relations {
		if len(base["KB_"+r.Name]) == 0 {
			t.Fatalf("empty KB for %s", r.Name)
		}
		if len(base["SeedKB_"+r.Name]) == 0 {
			t.Fatalf("empty seeds for %s", r.Name)
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	sys := smallSystem()
	kb := openKB(t, sys, 0)
	if st := kb.Stats(); st.Variables == 0 || st.Factors == 0 {
		t.Fatalf("empty grounding: %+v", st)
	}
	baseScores := Evaluate(sys, kb, 0.5)
	develop(t, sys, kb)
	lastScores := Evaluate(sys, kb, 0.5)
	// Feature extraction + supervision must improve on the bias-only base.
	if lastScores.F1 <= baseScores.F1 {
		t.Fatalf("no quality improvement: base F1 %.3f, final F1 %.3f",
			baseScores.F1, lastScores.F1)
	}
	if lastScores.F1 < 0.3 {
		t.Fatalf("final F1 %.3f too low", lastScores.F1)
	}
}

// TestIncrementalMatchesRerunQuality is the paper's Section 4.2
// agreement claim: the incrementally developed KB and the rerun of the
// final program reach the same F1 and share their high-confidence facts.
//
// The overlap is asserted for every seed. On this 214-fact corpus it is a
// property of the learner before it is one of the incremental loop: one
// feature weight near the level moves ~50 facts across it together. While
// the learner sampled its gradient everywhere, a rerun compared with the
// same rerun under another seed overlapped by 0.70–1.00 and incremental
// against rerun landed in the same band, so only a thirty-seed mean could be
// asserted. Every evidence-bearing component of this graph enumerates, so
// learning is now exact and the seed moves no weight: the overlap is 1.00
// at every seed.
func TestIncrementalMatchesRerunQuality(t *testing.T) {
	sys := smallSystem()
	const seeds = 30
	for seed := int64(1); seed <= seeds; seed++ {
		opts := []deepdive.Option{deepdive.WithSeed(seed), deepdive.WithLearning(40, 0.25)}
		incKB := openKB(t, sys, 0, opts...)
		develop(t, sys, incKB)
		rrKB := openKB(t, sys, len(IterationNames), opts...)

		incF1, rrF1 := Evaluate(sys, incKB, 0.5).F1, Evaluate(sys, rrKB, 0.5).F1
		if d := incF1 - rrF1; d > 0.15 || d < -0.15 {
			t.Fatalf("seed %d: incremental F1 %.3f vs rerun F1 %.3f differ too much", seed, incF1, rrF1)
		}
		// As in the retired loop's test, the paper's 99%-at-0.9 claim is
		// checked at the 0.7 level.
		ov := CompareFacts(FactProbs(sys, rrKB), FactProbs(sys, incKB), 0.7, 0.25)
		if ov.Shared == 0 {
			t.Fatalf("seed %d: no shared facts between rerun and incremental", seed)
		}
		t.Logf("seed %d: overlap AB=%.2f BA=%.2f largeDiff=%.2f shared=%d F1 inc=%.3f rerun=%.3f",
			seed, ov.HighConfOverlapAB, ov.HighConfOverlapBA, ov.FracLargeDiff, ov.Shared, incF1, rrF1)
		if ov.HighConfOverlapAB < 0.9 {
			t.Errorf("seed %d: high-confidence overlap %.2f, want >= 0.9", seed, ov.HighConfOverlapAB)
		}
	}
}

func TestEvaluateCounts(t *testing.T) {
	sys := smallSystem()
	kb, err := OpenKB(sys, factor.Ratio, 0, testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	// Before inference no query fact has a marginal: predictions come
	// only from evidence (which is correct by construction), so no false
	// positives and plenty of misses.
	s := Evaluate(sys, kb, 0.5)
	if s.FP != 0 {
		t.Fatalf("uninferred snapshot scored FP=%d", s.FP)
	}
	if s.FN == 0 {
		t.Fatal("ground truth has no positive query facts to miss")
	}
	// A threshold every marginal clears: recall 1.
	if _, err := kb.Infer(ctx); err != nil {
		t.Fatal(err)
	}
	s = Evaluate(sys, kb, -1)
	if s.Recall != 1 {
		t.Fatalf("all-positive predictions recall %.2f", s.Recall)
	}
}

func TestCompareFactsBasics(t *testing.T) {
	a := map[Fact]float64{{Rel: "R", M1: "x", M2: "y"}: 0.95, {Rel: "R", M1: "x", M2: "z"}: 0.2}
	b := map[Fact]float64{{Rel: "R", M1: "x", M2: "y"}: 0.97, {Rel: "R", M1: "x", M2: "z"}: 0.5}
	ov := CompareFacts(a, b, 0.9, 0.05)
	if ov.HighConfOverlapAB != 1 || ov.Shared != 2 {
		t.Fatalf("overlap = %+v", ov)
	}
	if ov.FracLargeDiff != 0.5 {
		t.Fatalf("FracLargeDiff = %v, want 0.5", ov.FracLargeDiff)
	}
}

func TestCalibrationBuckets(t *testing.T) {
	sys := smallSystem()
	kb := openKB(t, sys, 0)
	bins := Calibration(sys, kb, 10)
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	total := 0
	for i, b := range bins {
		total += b.Count
		if b.Count == 0 {
			continue
		}
		// The last bucket is closed: it also holds probability 1.
		if b.MeanProb < b.Lo || b.MeanProb > b.Hi || (i < 9 && b.MeanProb == b.Hi) {
			t.Fatalf("bin %d [%.1f,%.1f) has mean probability %v", i, b.Lo, b.Hi, b.MeanProb)
		}
		if b.FracTrue < 0 || b.FracTrue > 1 {
			t.Fatalf("bin %d: fraction true %v", i, b.FracTrue)
		}
	}
	// Every query fact lands in exactly one bucket.
	if want := len(FactProbs(sys, kb)); total == 0 || total != want {
		t.Fatalf("buckets hold %d facts, the snapshot %d query facts", total, want)
	}
}

func TestIterationRulesUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown iteration did not panic")
		}
	}()
	IterationRules(smallSystem(), "XX")
}

func TestRerunProgramGrowth(t *testing.T) {
	sys := smallSystem()
	src0 := Program(sys, factor.Linear, 0)
	if src0 != BaseProgram(sys, factor.Linear) {
		t.Fatal("Program(0) is not the base program")
	}
	srcAll := Program(sys, factor.Linear, len(IterationNames))
	if !strings.Contains(srcAll, "S2_") || !strings.Contains(srcAll, "FE1_") {
		t.Fatal("iteration rules missing from combined program")
	}
	p0, _ := datalog.Parse(src0)
	pAll, _ := datalog.Parse(srcAll)
	if len(pAll.Rules) <= len(p0.Rules) {
		t.Fatal("combined program has no extra rules")
	}
}
