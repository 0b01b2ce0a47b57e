package learn

// Seed-pinned golden weights: the trainer's output at a fixed seed must
// not move bit for bit under a refactor of its loop or of the chains it
// drives; any change — a reordered float reduction, an extra or missing RNG
// draw, a step applied to a frozen weight — shifts them. The sampled cases
// were re-recorded when learning became exact by component: 37 of the golden
// graph's 40 variables form one evidence-bearing component past the bound,
// the other three no evidence-bearing one, so the chain pair now runs on the
// subgraph those 37 induce instead of the whole graph. The exact cases run
// no chain: seed and runtime do not move them.

import (
	"math"
	"math/rand"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// goldenGraph builds a deterministic mixed-semantics graph: 40 variables
// (about a quarter evidence), 5 tied weights shared by 30 groups of 1-3
// groundings, all three counting semantics.
func goldenGraph() *factor.Graph {
	rng := rand.New(rand.NewSource(31))
	b := factor.NewBuilder()
	const nVars = 40
	var vars []factor.VarID
	for i := 0; i < nVars; i++ {
		if rng.Intn(4) == 0 {
			vars = append(vars, b.AddEvidenceVar(rng.Intn(2) == 0))
		} else {
			vars = append(vars, b.AddVar())
		}
	}
	var weights []factor.WeightID
	for i := 0; i < 5; i++ {
		weights = append(weights, b.AddWeight(0))
	}
	sems := []factor.Semantics{factor.Linear, factor.Logical, factor.Ratio}
	for gi := 0; gi < 30; gi++ {
		var gnds []factor.Grounding
		for k := 0; k < 1+rng.Intn(3); k++ {
			var lits []factor.Literal
			for l := 0; l < 1+rng.Intn(2); l++ {
				lits = append(lits, factor.Literal{Var: vars[rng.Intn(nVars)], Neg: rng.Intn(3) == 0})
			}
			gnds = append(gnds, factor.Grounding{Lits: lits})
		}
		b.AddGroup(vars[rng.Intn(nVars)], weights[rng.Intn(5)], sems[gi%3], gnds)
	}
	return b.MustBuild()
}

// exactGoldenGraph builds a deterministic mixed-semantics graph whose
// evidence-bearing components all enumerate: 20 blocks of 1-3 variables
// (about half evidence), each with 1-3 groups over its own variables tied to
// 5 weights, all three counting semantics.
func exactGoldenGraph() *factor.Graph {
	rng := rand.New(rand.NewSource(37))
	b := factor.NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddWeight(0)
	}
	sems := []factor.Semantics{factor.Linear, factor.Logical, factor.Ratio}
	for blk := 0; blk < 20; blk++ {
		var vars []factor.VarID
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if rng.Intn(2) == 0 {
				vars = append(vars, b.AddEvidenceVar(rng.Intn(2) == 0))
			} else {
				vars = append(vars, b.AddVar())
			}
		}
		for gi := 1 + rng.Intn(3); gi > 0; gi-- {
			var gnds []factor.Grounding
			for k := rng.Intn(3); k > 0; k-- {
				gnds = append(gnds, factor.Grounding{Lits: []factor.Literal{{Var: vars[rng.Intn(len(vars))], Neg: rng.Intn(3) == 0}}})
			}
			b.AddGroup(vars[rng.Intn(len(vars))], factor.WeightID(rng.Intn(5)), sems[rng.Intn(3)], gnds)
		}
	}
	return b.MustBuild()
}

// hashFloats folds float64 bit patterns through FNV-1a.
func hashFloats(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		bits := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> uint(s)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func TestGoldenTrainPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		graph   func() *factor.Graph
		method  Method
		runtime gibbs.Runtime
		seed    int64
		want    uint64
	}{
		{"sgd-w1", goldenGraph, SGD, gibbs.Runtime{Workers: 1}, 13, 0x486a181983172a97},
		{"sgd-w4", goldenGraph, SGD, gibbs.Runtime{Workers: 4}, 13, 0xc245d7c3bb22a553},
		{"gd-w1", goldenGraph, GD, gibbs.Runtime{Workers: 1}, 13, 0x1956145c94870b16},
		{"gd-w4", goldenGraph, GD, gibbs.Runtime{Workers: 4}, 13, 0x73ddf644118c010c},
		{"exact-sgd-w1", exactGoldenGraph, SGD, gibbs.Runtime{Workers: 1}, 13, 0x67e8bc50a5008a2b},
		{"exact-sgd-w4", exactGoldenGraph, SGD, gibbs.Runtime{Workers: 4}, 13, 0x67e8bc50a5008a2b},
		{"exact-sgd-replicas", exactGoldenGraph, SGD, gibbs.Runtime{Replicas: 2}, 14, 0x67e8bc50a5008a2b},
		{"exact-gd-w1", exactGoldenGraph, GD, gibbs.Runtime{Workers: 1}, 13, 0x5cb00a11d5239615},
		{"exact-gd-w4", exactGoldenGraph, GD, gibbs.Runtime{Workers: 4}, 14, 0x5cb00a11d5239615},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g := c.graph()
			res := Train(g, Options{
				Method:    c.method,
				Epochs:    8,
				StepSize:  0.05,
				Seed:      c.seed,
				Runtime:   c.runtime,
				Warmstart: []float64{0.5, -0.25, 0, 1.5, 0.75},
				Frozen:    []bool{false, false, false, true, false},
			})
			if res.Weights[3] != 1.5 {
				t.Fatalf("frozen weight moved to %v", res.Weights[3])
			}
			if got := hashFloats(res.Weights); got != c.want {
				t.Fatalf("weights hash = %#x, want %#x (weights %v, solved %+v)", got, c.want, res.Weights, res.Solved)
			}
		})
	}
}
