// Incremental: the paper's headline demonstration — the same development
// iterations executed from scratch (Rerun) and incrementally
// (materialize once, then DRed grounding + sampling/variational
// inference), with the speedup and the quality agreement printed per
// step. This is Figure 10(a) in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

var ctx = context.Background()

func main() {
	spec := corpus.Pharma()
	spec.NumDocs = 60
	sys := corpus.Generate(spec)
	fmt.Printf("== %s: %d docs, %d relations ==\n\n", sys.Spec.Name, len(sys.Docs), len(sys.Spec.Relations))

	// Incremental KB: ground + learn + materialize once.
	kb, _ := rerun(sys, 0)
	defer kb.Close()
	matT, err := kb.Materialize(ctx)
	check(err)
	fmt.Printf("one-time materialization: %v (%d stored sample worlds)\n\n",
		matT.Round(time.Millisecond), kb.Autopilot().StoreLen)
	f1 := func(kb *deepdive.KB) float64 { return kbc.Evaluate(sys, kb, 0.5).F1 }

	fmt.Printf("%-5s %12s %12s %9s %9s %9s\n",
		"rule", "rerun", "incremental", "speedup", "F1(rr)", "F1(inc)")
	var rrCum, incCum time.Duration
	var rrFinal *deepdive.KB
	for k, rule := range kbc.IterationNames {
		res, err := kb.Apply(ctx, deepdive.Update{RuleSource: kbc.IterationRules(sys, rule)})
		check(err)
		incT := res.LearnTime + res.InferTime
		rr, rrT := rerun(sys, k+1)
		rrCum += rrT
		incCum += incT
		fmt.Printf("%-5s %12v %12v %8.1fx %9.3f %9.3f\n",
			rule, rrT.Round(1e3), incT.Round(1e3), float64(rrT)/float64(max(incT, 1)), f1(rr), f1(kb))
		if rrFinal != nil {
			rrFinal.Close()
		}
		rrFinal = rr
	}
	defer rrFinal.Close()
	fmt.Printf("\ncumulative: rerun %v vs incremental %v (%.1fx)\n",
		rrCum.Round(time.Millisecond), incCum.Round(time.Millisecond),
		float64(rrCum)/float64(max(incCum, 1)))

	// Quality agreement between the two paths (paper Section 4.2).
	ov := kbc.CompareFacts(kbc.FactProbs(sys, rrFinal), kbc.FactProbs(sys, kb), 0.7, 0.05)
	fmt.Printf("high-confidence fact overlap: %.0f%% / %.0f%% (%d shared facts, %.0f%% differ by >0.05)\n",
		100*ov.HighConfOverlapAB, 100*ov.HighConfOverlapBA, ov.Shared, 100*ov.FracLargeDiff)
}

// rerun is the Rerun baseline: a fresh KB on the program with the first
// upTo iterations, learned and inferred from scratch. It returns the KB
// and the learn + inference time.
func rerun(sys *corpus.System, upTo int) (*deepdive.KB, time.Duration) {
	kb, err := kbc.OpenKB(sys, factor.Ratio, upTo, deepdive.WithSeed(3))
	check(err)
	learnT, err := kb.Learn(ctx)
	check(err)
	inferT, err := kb.Infer(ctx)
	check(err)
	return kb, learnT + inferT
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
