package factor_test

// Differential harness for the Markov-blanket conditional cache: over
// randomized build→update→flip sequences, a cached State and an uncached
// State stepped through identical mutations must report bit-identical
// EnergyDelta and CondProb for every variable after every step — the
// cache's contract is bitwise transparency, so the comparison is exact
// (==), not epsilon-based. Both update modes run: "inplace" applies each
// update through factor.Patch (exercising overflow rows, tombstones, and
// the patched semantics tables / blanket links), "rebuild" rebuilds the
// graph from the independent model oracle. Weight mutations are mixed in
// to exercise bulk invalidation through the weight generation.
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

	newStates := func(g *factor.Graph, assign []bool) (cached, plain *factor.State) {
		cached = factor.NewStateWith(g, assign)
		plain = factor.NewStateWith(g, assign)
		plain.SetConditionalCache(false)
		return cached, plain
	}

	randomAssign := func(n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = rng.Intn(2) == 0
		}
		return out
	}

	compareAll := func(step int, cached, plain *factor.State) {
		g := cached.G
		for v := 0; v < g.NumVars(); v++ {
			id := factor.VarID(v)
			dc := cached.EnergyDelta(id)
			dp := plain.EnergyDelta(id)
			if math.Float64bits(dc) != math.Float64bits(dp) {
				t.Fatalf("step %d var %d: cached EnergyDelta %v != uncached %v (bit drift)", step, v, dc, dp)
			}
			pc := cached.CondProb(id)
			pp := plain.CondProb(id)
			if math.Float64bits(pc) != math.Float64bits(pp) {
				t.Fatalf("step %d var %d: cached CondProb %v != uncached %v (bit drift)", step, v, pc, pp)
			}
			// The direct evaluator is a different float reduction only for
			// patched layouts; on both it must agree to within epsilon.
			dd := g.EnergyDeltaOf(cached.Assign, id)
			if math.Abs(dd-dc) > 1e-9*(1+math.Abs(dd)) {
				t.Fatalf("step %d var %d: direct delta %v vs counter %v", step, v, dd, dc)
			}
		}
	}

	cached, plain := newStates(g, randomAssign(g.NumVars()))
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

		// Fresh states over the updated graph from one random assignment.
		cached, plain = newStates(g, randomAssign(g.NumVars()))
		compareAll(step, cached, plain)

		// A burst of identical random flips through the fused kernel (Set)
		// and occasional weight changes, comparing after each operation.
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
				vc := cached.SampleVar(v, u)
				vp := plain.SampleVar(v, u)
				if vc != vp {
					t.Fatalf("step %d op %d var %d: SampleVar diverged (%v vs %v)", step, op, v, vc, vp)
				}
			default: // plain flip
				v := randomFreeVar(rng, g)
				if v < 0 {
					continue
				}
				val := rng.Intn(2) == 0
				cached.Set(v, val)
				plain.Set(v, val)
			}
		}
		compareAll(step, cached, plain)
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
