// Command deepdive-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	deepdive-exp [-scale quick|full] [-seed N] <experiment>...
//	deepdive-exp all
//
// Experiments: f4 f5a f5b f5c f6 f7 f9 f10a f10b f11 f13 f14 f15 f16 f17
// ground (one per table or figure of the paper; internal/exp documents
// each).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"deepdive/internal/exp"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 1, "random seed")
	budget := flag.Duration("budget", 2*time.Second, "materialization budget for f15")
	flag.Parse()

	sc := exp.Quick
	switch *scale {
	case "quick":
	case "full":
		sc = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: deepdive-exp [-scale quick|full] <experiment>... | all")
		fmt.Fprintln(os.Stderr, "experiments: f4 f5a f5b f5c f6 f7 f9 f10a f10b f11 f13 f14 f15 f16 f17 ground")
		os.Exit(2)
	}

	runners := map[string]func() *exp.Report{
		"f4":     func() *exp.Report { return exp.Fig4() },
		"f5a":    func() *exp.Report { return exp.Fig5a(exp.Fig5aSizes, *seed) },
		"f5b":    func() *exp.Report { return exp.Fig5b(1000, exp.Fig5bDeltas, *seed) },
		"f5c":    func() *exp.Report { return exp.Fig5c(1000, exp.Fig5cSparsities, *seed) },
		"f6":     func() *exp.Report { return exp.Fig6(sc, exp.Fig6Lambdas, *seed) },
		"f7":     func() *exp.Report { return exp.Fig7(sc, *seed) },
		"f9":     func() *exp.Report { return exp.Fig9(sc, *seed) },
		"f10a":   func() *exp.Report { return exp.Fig10a(sc, *seed) },
		"f10b":   func() *exp.Report { return exp.Fig10b(sc, *seed) },
		"f11":    func() *exp.Report { return exp.Fig11(sc, *seed) },
		"f13":    func() *exp.Report { return exp.Fig13(exp.Fig13Sizes, *seed) },
		"f14":    func() *exp.Report { return exp.Fig14(sc, *seed) },
		"f15":    func() *exp.Report { return exp.Fig15(sc, *budget, *seed) },
		"f16":    func() *exp.Report { return exp.Fig16(*seed) },
		"f17":    func() *exp.Report { return exp.Fig17(*seed) },
		"ground": func() *exp.Report { return exp.Grounding(sc, *seed) },
	}
	order := []string{"f4", "f5a", "f5b", "f5c", "f6", "f7", "f9", "f10a",
		"f10b", "f11", "f13", "f14", "f15", "f16", "f17", "ground"}

	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for _, name := range args {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		rep := run()
		fmt.Println(rep.String())
		fmt.Printf("  [%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
