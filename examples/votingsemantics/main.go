// Votingsemantics: Example 2.5 of the paper, written in the DeepDive
// language and executed for each of the three counting semantics
// (Figure 4). Up/down votes about a disputed fact are tallied; linear
// semantics saturates, ratio and logical semantics keep the posterior
// honest when the vote counts nearly cancel.
package main

import (
	"context"
	"fmt"
	"log"

	"deepdive"
)

const programTemplate = `
@relation Up(x).
@relation Down(x).
@variable Q(flag).
@relation Seed(flag).

Cand: Q(f) :- Seed(f).
RUp:   Q(f) :- Up(x), Seed(f)   weight = 1    sem = %s.
RDown: Q(f) :- Down(x), Seed(f) weight = -1   sem = %s.
`

func main() {
	const nUp, nDown = 60, 50
	for _, sem := range []string{"linear", "logical", "ratio"} {
		src := fmt.Sprintf(programTemplate, sem, sem)
		kb, err := deepdive.OpenKB(src,
			deepdive.WithSeed(9),
			deepdive.WithInference(200, 4000),
		)
		check(err)
		var ups, downs []deepdive.Tuple
		for i := 0; i < nUp; i++ {
			ups = append(ups, deepdive.Tuple{fmt.Sprintf("u%d", i)})
		}
		for i := 0; i < nDown; i++ {
			downs = append(downs, deepdive.Tuple{fmt.Sprintf("d%d", i)})
		}
		check(kb.Load("Up", ups))
		check(kb.Load("Down", downs))
		check(kb.Load("Seed", []deepdive.Tuple{{"q"}}))
		ctx := context.Background()
		check(kb.Init(ctx))
		_, err = kb.Infer(ctx) // weights are fixed: no learning needed
		check(err)
		p, _ := kb.Marginal("Q", deepdive.Tuple{"q"})
		check(kb.Close())
		fmt.Printf("%-8s  %d up / %d down votes  ->  Pr[Q] = %.3f\n", sem, nUp, nDown, p)
	}
	fmt.Println("\nlinear counts every vote at full weight (saturates);")
	fmt.Println("ratio scores the log-ratio of votes; logical only asks \"any vote at all?\".")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
