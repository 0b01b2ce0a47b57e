package learn

// Seed-pinned golden weights: the trainer's output at a fixed seed must
// not move bit for bit under a refactor of its loop or of the chains it
// drives. The hashes were captured at PR 20, before the replica learning
// engine was retired; any change — a reordered float reduction, an extra
// or missing RNG draw, a step applied to a frozen weight — shifts them.

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
		method  Method
		workers int
		want    uint64
	}{
		{"sgd-w1", SGD, 1, 0x19e1567426775b50},
		{"sgd-w4", SGD, 4, 0x7a32169c8afd9e29},
		{"gd-w1", GD, 1, 0xa40cb560db3a5f7b},
		{"gd-w4", GD, 4, 0x31b4c522e2339464},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g := goldenGraph()
			res := Train(g, Options{
				Method:    c.method,
				Epochs:    8,
				StepSize:  0.05,
				Seed:      13,
				Runtime:   gibbs.Runtime{Workers: c.workers},
				Warmstart: []float64{0.5, -0.25, 0, 1.5, 0.75},
				Frozen:    []bool{false, false, false, true, false},
			})
			if res.Weights[3] != 1.5 {
				t.Fatalf("frozen weight moved to %v", res.Weights[3])
			}
			if got := hashFloats(res.Weights); got != c.want {
				t.Fatalf("weights hash = %#x, want %#x (weights %v)", got, c.want, res.Weights)
			}
		})
	}
}
