package factor_test

// Differential harness for the Markov-blanket conditional cache: over
// randomized build→update→flip sequences, a long-lived State must report
// EnergyDelta and CondProb bit-identical to a State built fresh from its
// assignment at each comparison — a fresh State's cache is empty, so every
// conditional it reports is recomputed. The cache's contract is bitwise
// transparency, so the comparison is exact (==), not epsilon-based; each
// SampleVar draw is checked against the recomputed conditional taken
// before it. Both update modes run: "inplace" applies each update through
// factor.Patch (exercising overflow rows, tombstones, and the patched
// semantics tables / blanket links), "rebuild" rebuilds the graph from the
// independent model oracle. Weight mutations are mixed in to exercise bulk
// invalidation through the weight generation.
//
// Failures print the subtest seed; re-run with
// -run 'TestConditionalCacheDifferential/<mode>/seed=N' to reproduce.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepdive/internal/factor"
)

// cacheSteps is the per-seed step count; 8 seeds × 30 steps = 240
// randomized steps per mode.
const cacheSteps = 30

func TestConditionalCacheDifferential(t *testing.T) {
	for _, mode := range []string{"inplace", "rebuild"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					runCacheDifferential(t, mode, seed)
				})
			}
		})
	}
}

func runCacheDifferential(t *testing.T, mode string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m, g := seedModel(rng, t, false)

	randomAssign := func(n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = rng.Intn(2) == 0
		}
		return out
	}

	compareAll := func(step int, cached *factor.State) {
		g := cached.G
		fresh := factor.NewStateWith(g, cached.Assign)
		for v := 0; v < g.NumVars(); v++ {
			id := factor.VarID(v)
			dc := cached.EnergyDelta(id)
			df := fresh.EnergyDelta(id)
			if math.Float64bits(dc) != math.Float64bits(df) {
				t.Fatalf("step %d var %d: cached EnergyDelta %v != recomputed %v (bit drift)", step, v, dc, df)
			}
			pc := cached.CondProb(id)
			pf := fresh.CondProb(id)
			if math.Float64bits(pc) != math.Float64bits(pf) {
				t.Fatalf("step %d var %d: cached CondProb %v != recomputed %v (bit drift)", step, v, pc, pf)
			}
			// The direct evaluator is a different float reduction only for
			// patched layouts; on both it must agree to within epsilon.
			dd := g.EnergyDeltaOf(cached.Assign, id)
			if math.Abs(dd-dc) > 1e-9*(1+math.Abs(dd)) {
				t.Fatalf("step %d var %d: direct delta %v vs counter %v", step, v, dd, dc)
			}
		}
	}

	var cached *factor.State
	for step := 0; step < cacheSteps; step++ {
		// Mutate the graph: in-place patch or model rebuild.
		if mode == "inplace" {
			p := factor.NewPatch(g)
			mutateStep(rng, p, m)
			g = p.Apply()
		} else {
			p := factor.NewPatch(g) // mutateStep drives both; discard the patch result
			mutateStep(rng, p, m)
			g = m.build(t)
			// Build assigns grounding ids sequentially over live groundings
			// in group order; re-stamp the model so later removals target
			// the rebuilt graph's ids.
			var id int32
			for _, gr := range m.groups {
				for _, gnd := range gr.gnds {
					if gnd.live {
						gnd.flatID = id
						id++
					}
				}
			}
		}

		// A new state over the updated graph from a random assignment.
		cached = factor.NewStateWith(g, randomAssign(g.NumVars()))
		compareAll(step, cached)

		// A burst of random draws through the fused kernel (SampleVar),
		// flips (Set) and occasional weight changes.
		for op := 0; op < 12; op++ {
			switch rng.Intn(5) {
			case 0: // weight change: bulk invalidation via weight generation
				w := factor.WeightID(rng.Intn(g.NumWeights()))
				val := rng.Float64()*2 - 1
				g.SetWeight(w, val)
			case 1: // sample through the fused kernel with a shared draw
				v := randomFreeVar(rng, g)
				if v < 0 {
					continue
				}
				u := rng.Float64()
				want := u < factor.NewStateWith(g, cached.Assign).CondProb(v)
				if got := cached.SampleVar(v, u); got != want {
					t.Fatalf("step %d op %d var %d: SampleVar drew %v, recomputed conditional gives %v", step, op, v, got, want)
				}
			default: // plain flip
				v := randomFreeVar(rng, g)
				if v < 0 {
					continue
				}
				cached.Set(v, rng.Intn(2) == 0)
			}
		}
		compareAll(step, cached)
	}
}

// randomFreeVar picks a uniformly random non-evidence variable (-1 when
// none exists).
func randomFreeVar(rng *rand.Rand, g *factor.Graph) factor.VarID {
	for try := 0; try < 64; try++ {
		v := factor.VarID(rng.Intn(g.NumVars()))
		if !g.IsEvidence(v) {
			return v
		}
	}
	return -1
}

// TestCacheSurvivesStateResets pins the bulk-invalidation paths the
// learner and the incremental engine depend on: Recount, SyncEvidence,
// SetAssignment, SetWeight and SetWeights must all leave the cache serving
// fresh conditionals.
func TestCacheSurvivesStateResets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	_, g := seedModel(rng, t, false)
	st := factor.NewStateWith(g, make([]bool, g.NumVars()))

	warm := func() {
		for v := 0; v < g.NumVars(); v++ {
			st.EnergyDelta(factor.VarID(v))
		}
	}
	check := func(what string) {
		t.Helper()
		for v := 0; v < g.NumVars(); v++ {
			id := factor.VarID(v)
			got := st.EnergyDelta(id)
			want := g.EnergyDeltaOf(st.Assign, id)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: var %d stale conditional %v, want %v", what, v, got, want)
			}
		}
	}

	warm()
	// Weight change through the graph API.
	g.SetWeight(0, 1.75)
	check("SetWeight")

	// Whole-vector replacement (the learner's step).
	warm()
	ws := append([]float64(nil), g.Weights()...)
	ws[0] = -2.5
	g.SetWeights(ws)
	check("SetWeights")

	// Evidence flip + SyncEvidence.
	warm()
	var ev factor.VarID = -1
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) {
			ev = factor.VarID(v)
			break
		}
	}
	if ev >= 0 {
		g.SetEvidence(ev, true, !g.EvidenceValue(ev))
		st.SyncEvidence()
		check("SyncEvidence")
	}

	// Wholesale assignment swap.
	warm()
	prop := make([]bool, g.NumVars())
	for i := range prop {
		prop[i] = rng.Intn(2) == 0
	}
	st.SetAssignment(prop)
	check("SetAssignment")

	// Recount after nothing in particular (idempotent refresh).
	warm()
	st.Recount()
	check("Recount")
}
