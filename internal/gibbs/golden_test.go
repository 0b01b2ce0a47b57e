package gibbs_test

// Seed-pinned golden marginals: the hot-path overhaul (Markov-blanket
// conditional caching, table-driven semantics, fused sweep kernels) must
// preserve every sampler's output bit for bit at a fixed seed. The hashes
// below were captured on the pre-overhaul evaluators (PR 4); any change —
// a reordered float reduction, a cache serving a stale conditional, an
// extra or missing RNG draw — shifts the hash.

import (
	"math"
	"math/rand"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// goldenGraph builds a deterministic mixed-semantics graph: 48 variables
// (some evidence), 6 tied weights, 40 groups of 1-3 groundings with 1-3
// literals each, all three counting semantics.
func goldenGraph() *factor.Graph {
	rng := rand.New(rand.NewSource(77))
	b := factor.NewBuilder()
	const nVars = 48
	var vars []factor.VarID
	for i := 0; i < nVars; i++ {
		if rng.Intn(6) == 0 {
			vars = append(vars, b.AddEvidenceVar(rng.Intn(2) == 0))
		} else {
			vars = append(vars, b.AddVar())
		}
	}
	var weights []factor.WeightID
	for i := 0; i < 6; i++ {
		weights = append(weights, b.AddWeight(rng.Float64()*3-1.5))
	}
	sems := []factor.Semantics{factor.Linear, factor.Logical, factor.Ratio}
	for gi := 0; gi < 40; gi++ {
		var gnds []factor.Grounding
		for k := 0; k < 1+rng.Intn(3); k++ {
			var lits []factor.Literal
			for l := 0; l < 1+rng.Intn(3); l++ {
				lits = append(lits, factor.Literal{
					Var: vars[rng.Intn(nVars)],
					Neg: rng.Intn(3) == 0,
				})
			}
			gnds = append(gnds, factor.Grounding{Lits: lits})
		}
		b.AddGroup(vars[rng.Intn(nVars)], weights[rng.Intn(6)], sems[gi%3], gnds)
	}
	return b.MustBuild()
}

// goldenPatched extends the golden graph through a Patch: new vars, a new
// group, groundings added to existing groups, and one tombstone — the
// in-place update shapes whose overflow rows the cached evaluators must
// handle conservatively.
func goldenPatched() *factor.Graph {
	g := goldenGraph()
	p := factor.NewPatch(g)
	v1 := p.AddVar()
	v2 := p.AddVar()
	w := p.AddWeight(0.8)
	gi := p.AddGroup(v1, w, factor.Ratio)
	p.AddGrounding(gi, []factor.Literal{{Var: v2}, {Var: 3, Neg: true}})
	p.AddGrounding(gi, []factor.Literal{{Var: 5}})
	p.AddGrounding(3, []factor.Literal{{Var: v1}, {Var: 7}})
	p.AddGrounding(9, []factor.Literal{{Var: v2, Neg: true}})
	p.RemoveGrounding(1)
	return p.Apply()
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

func TestGoldenMarginalsPinned(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		run  func() []float64
	}{
		{"sequential", 0x422a15c890229804, func() []float64 {
			return gibbs.New(goldenGraph(), 11).Marginals(20, 300)
		}},
		{"sequential-randomized", 0xff50d304c2e973d2, func() []float64 {
			s := gibbs.New(goldenGraph(), 11)
			s.RandomizeState()
			return s.Marginals(20, 300)
		}},
		{"parallel-4", 0xf96bbf1c375cf7fb, func() []float64 {
			return gibbs.NewParallel(goldenGraph(), 4, 11).Marginals(20, 300)
		}},
		{"replica-3", 0xa33e64c90bcf82a6, func() []float64 {
			return gibbs.NewReplica(goldenGraph(), 3, 4, 11).Marginals(20, 300)
		}},
		{"patched-sequential", 0xf9abb4565f9c4201, func() []float64 {
			return gibbs.New(goldenPatched(), 11).Marginals(20, 300)
		}},
		{"patched-parallel-4", 0x1cbf3f70ea694405, func() []float64 {
			return gibbs.NewParallel(goldenPatched(), 4, 11).Marginals(20, 300)
		}},
		{"patched-replica-3", 0x7c1af869c5fb2b1a, func() []float64 {
			return gibbs.NewReplica(goldenPatched(), 3, 4, 11).Marginals(20, 300)
		}},
		{"store-collect", 0x9f76480ee089bf3c, func() []float64 {
			st := gibbs.New(goldenGraph(), 11).CollectSamples(10, 100)
			return st.Means()
		}},
		{"parallel-4-store-collect", 0x5b00ce1e04e1a796, func() []float64 {
			return gibbs.NewParallel(goldenGraph(), 4, 11).CollectSamples(10, 100).Means()
		}},
		// n = 100 is not a multiple of 3: the last sweep stores one of its
		// three replica worlds.
		{"replica-3-store-collect", 0xff2c1639155d89a3, func() []float64 {
			return gibbs.NewReplica(goldenGraph(), 3, 4, 11).CollectSamples(10, 100).Means()
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := hashFloats(c.run())
			if got != c.want {
				t.Fatalf("marginals hash = %#x, want %#x (bit-level drift from the pre-overhaul sampler)", got, c.want)
			}
		})
	}
}

// TestGoldenWeightStatsPinned pins the learning-side sufficient statistic
// the same way (what learn.Train's remainder chains feed its gradient).
func TestGoldenWeightStatsPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		build   func() *factor.Graph
		want    uint64
		sweeps  int
		replica bool
	}{
		{name: "built", build: goldenGraph, want: 0xc75a4b5ee52d76a6, sweeps: 25},
		{name: "patched", build: goldenPatched, want: 0x3adef04d106011e8, sweeps: 25},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			s := gibbs.New(g, 7)
			stats := make([]float64, g.NumWeights())
			for i := 0; i < c.sweeps; i++ {
				s.Sweep()
				s.WeightStats(stats)
			}
			if got := hashFloats(stats); got != c.want {
				t.Fatalf("weight-stats hash = %#x, want %#x", got, c.want)
			}
		})
	}
}
