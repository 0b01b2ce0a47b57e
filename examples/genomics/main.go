// Genomics: run the synthetic gene/phenotype KBC system end to end —
// corpus generation, NLP, grounding, learning, inference, and evaluation
// against exact ground truth, including the calibration curve DeepDive
// promises ("facts with probability 0.9 are right about 90% of the
// time").
package main

import (
	"context"
	"fmt"
	"log"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

func main() {
	spec := corpus.Genomics()
	spec.NumDocs = 40
	sys := corpus.Generate(spec)
	fmt.Printf("== Genomics: %d documents, %d relations ==\n", len(sys.Docs), len(sys.Spec.Relations))

	ctx := context.Background()
	kb, err := kbc.OpenKB(sys, factor.Ratio, 0, deepdive.WithSeed(7))
	check(err)
	defer kb.Close()
	st := kb.Stats()
	fmt.Printf("grounded: %d vars, %d factors, %d weights\n", st.Variables, st.Factors, st.Weights)

	_, err = kb.Learn(ctx)
	check(err)
	_, err = kb.Infer(ctx)
	check(err)
	_, err = kb.Materialize(ctx)
	check(err)

	// Apply the full development sequence.
	for _, rule := range kbc.IterationNames {
		res, err := kb.Apply(ctx, deepdive.Update{RuleSource: kbc.IterationRules(sys, rule)})
		check(err)
		sc := kbc.Evaluate(sys, kb, 0.5)
		fmt.Printf("%-4s F1=%.3f (P=%.3f R=%.3f) strategy=%-11v infer=%v\n",
			rule, sc.F1, sc.Precision, sc.Recall, res.Strategy, res.InferTime.Round(1e3))
	}

	fmt.Println("\ntop extractions (p > 0.9):")
	shown := 0
	for _, r := range sys.Spec.Relations {
		for _, f := range kb.Extractions("Rel_"+r.Name, 0.9) {
			if f.Evidence || shown >= 8 {
				continue
			}
			fmt.Printf("  %s(%s, %s) = %.3f\n", r.Name, f.Tuple[0], f.Tuple[1], f.Probability)
			shown++
		}
	}

	fmt.Println("\ncalibration:")
	for _, b := range kbc.Calibration(sys, kb, 5) {
		if b.Count == 0 {
			continue
		}
		fmt.Printf("  p in [%.1f,%.1f): %4d facts, fraction true %.2f\n",
			b.Lo, b.Hi, b.Count, b.FracTrue)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
