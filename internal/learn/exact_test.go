package learn

// The exact gradient against independent oracles: log Pr[E] by enumerating
// every world of the whole graph, differentiated numerically.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"deepdive/internal/factor"
)

// randomGraph generates an oracle graph: n variables, about a third of them
// evidence, nw tied weights shared by up to 2n groups (addGroups). Sparse
// draws fall apart into several released components, some without
// evidence.
func randomGraph(rng *rand.Rand, n, nw int) *factor.Graph {
	b := factor.NewBuilder()
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			b.AddEvidenceVar(rng.Intn(2) == 0)
		} else {
			b.AddVar()
		}
	}
	for k := 0; k < nw; k++ {
		b.AddWeight(0)
	}
	addGroups(rng, b, 0, n, nw)
	return b.MustBuild()
}

// addGroups adds up to 2·(hi−lo) random groups over the variables [lo, hi):
// 0–3 groundings of 1–2 literals each, under any of nw weights and any of
// the three semantics.
func addGroups(rng *rand.Rand, b *factor.Builder, lo, hi, nw int) {
	sems := []factor.Semantics{factor.Linear, factor.Logical, factor.Ratio}
	pick := func() factor.VarID { return factor.VarID(lo + rng.Intn(hi-lo)) }
	for gi := rng.Intn(2*(hi-lo) + 1); gi > 0; gi-- {
		var gnds []factor.Grounding
		for k := rng.Intn(4); k > 0; k-- {
			var lits []factor.Literal
			for l := 1 + rng.Intn(2); l > 0; l-- {
				lits = append(lits, factor.Literal{Var: pick(), Neg: rng.Intn(3) == 0})
			}
			gnds = append(gnds, factor.Grounding{Lits: lits})
		}
		b.AddGroup(pick(), factor.WeightID(rng.Intn(nw)), sems[rng.Intn(3)], gnds)
	}
}

// logPrE is log Pr[E] of g under its weights, every world enumerated.
func logPrE(g *factor.Graph) float64 {
	n := g.NumVars()
	assign := make([]bool, n)
	var clamped, released []float64
	for world := 0; world < 1<<n; world++ {
		consistent := true
		for v := range factor.VarID(n) {
			assign[v] = world>>v&1 == 1
			if g.IsEvidence(v) && assign[v] != g.EvidenceValue(v) {
				consistent = false
			}
		}
		e := g.Energy(assign)
		released = append(released, e)
		if consistent {
			clamped = append(clamped, e)
		}
	}
	return logSumExp(clamped) - logSumExp(released)
}

func logSumExp(xs []float64) float64 {
	top := math.Inf(-1)
	for _, x := range xs {
		top = max(top, x)
	}
	var z float64
	for _, x := range xs {
		z += math.Exp(x - top)
	}
	return top + math.Log(z)
}

// numericGradient is the central finite difference of log Pr[E] at w.
func numericGradient(g *factor.Graph, w []float64) []float64 {
	const h = 1e-4
	g = factor.NewBuilderFrom(g).MustBuild()
	at := func(k int, d float64) float64 {
		x := append([]float64(nil), w...)
		x[k] += d
		g.SetWeights(x)
		return logPrE(g)
	}
	grad := make([]float64, len(w))
	for k := range grad {
		grad[k] = (at(k, h) - at(k, -h)) / (2 * h)
	}
	return grad
}

// TestExactGradientMatchesEnumeration: on generated graphs of up to 14
// variables — all three semantics, tied weights, evidence, some weights
// frozen — one SGD step of a trainer whose every component compiles moves
// each learnable weight by the gradient of log Pr[E] (less the ℓ2 term) to
// 1e-6 of the central finite difference of the whole graph's enumeration,
// leaves the frozen ones, runs no chain, and reads the exact loss; and a
// query-only component added beside the graph adds nothing to the tables.
func TestExactGradientMatchesEnumeration(t *testing.T) {
	const graphs, l2 = 100, 0.01
	for seed := int64(1); seed <= graphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, nw := 1+rng.Intn(14), 1+rng.Intn(4)
		g := randomGraph(rng, n, nw)
		w := make([]float64, nw)
		frozen := make([]bool, nw)
		for k := range w {
			w[k] = 3*rng.Float64() - 1.5
			frozen[k] = rng.Intn(4) == 0
		}
		want := numericGradient(g, w)
		wantLogPr := logPrE(withWeights(g, w))
		evidence := 0
		for v := range factor.VarID(n) {
			if g.IsEvidence(v) {
				evidence++
			}
		}

		// A budget every component of 14 variables enumerates under.
		tr := NewTrainer(g, Options{Epochs: 1, BatchSweeps: 1, Burnin: 1 << 11, StepSize: 1, L2: l2, Warmstart: w, Frozen: frozen})
		if tr.clamped != nil || tr.plan.solved.Swept != 0 {
			t.Fatalf("seed %d: %d variables left to a chain", seed, tr.plan.solved.Swept)
		}
		if evidence > 0 {
			if got := tr.Loss(0); math.Abs(got+wantLogPr/float64(evidence)) > 1e-9 {
				t.Fatalf("seed %d: loss %v, enumeration %v", seed, got, -wantLogPr/float64(evidence))
			}
		}
		tr.Epoch(0)
		for k, got := range tr.Weights() {
			step := want[k] - l2*w[k]
			if frozen[k] {
				step = 0
			}
			if d := got - w[k]; math.Abs(d-step) > 1e-6 {
				t.Fatalf("seed %d (%d vars): weight %d (frozen %v) stepped %v, finite difference %v", seed, n, k, frozen[k], d, step)
			}
		}

		// The same graph beside a query-only component tied to its weights.
		b := factor.NewBuilderFrom(g)
		m := 1 + rng.Intn(4)
		for i := 0; i < m; i++ {
			b.AddVar()
		}
		addGroups(rng, b, n, n+m, nw)
		wide := b.MustBuild()
		pg, pw := newPlan(nil, withWeights(g, w), 1<<20), newPlan(nil, withWeights(wide, w), 1<<20)
		if !reflect.DeepEqual(pg.tables, pw.tables) || pg.logConst != pw.logConst || pg.solved != pw.solved {
			t.Fatalf("seed %d: a query-only component changed the compiled tables", seed)
		}
		if n+m <= 14 {
			for k, d := range numericGradient(wide, w) {
				if math.Abs(d-want[k]) > 1e-6 {
					t.Fatalf("seed %d: query-only component moved the gradient of weight %d: %v vs %v", seed, k, d, want[k])
				}
			}
		}
	}
}

// withWeights returns a copy of g under weights w.
func withWeights(g *factor.Graph, w []float64) *factor.Graph {
	c := factor.NewBuilderFrom(g).MustBuild()
	c.SetWeights(w)
	return c
}

// TestRemainderChainsRunOnTheirComponent: beside a chain of 30 coupled
// variables, one of them evidence — past the enumeration bound under any
// budget — the generated graphs' components compile exactly as they do
// alone, and the chain pair runs on the chain's induced subgraph only: the
// clamped one with its evidence, the free one released.
func TestRemainderChainsRunOnTheirComponent(t *testing.T) {
	const chain = 30
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		small := randomGraph(rng, 1+rng.Intn(12), 3)
		b := factor.NewBuilderFrom(small)
		first := factor.VarID(b.NumVars())
		for i := 0; i < chain; i++ {
			if i == 0 {
				b.AddEvidenceVar(true)
			} else {
				b.AddVar()
			}
		}
		for i := factor.VarID(1); i < chain; i++ {
			b.AddGroup(first+i, 1, factor.Ratio, []factor.Grounding{{Lits: []factor.Literal{{Var: first + i - 1}}}})
		}
		g := b.MustBuild()

		// A budget every component of the small graph enumerates under.
		opt := Options{Epochs: 2, BatchSweeps: 5, Burnin: 1 << 11, Seed: seed}
		tr, alone := NewTrainer(g, opt), NewTrainer(small, opt)
		if !reflect.DeepEqual(tr.plan.tables, alone.plan.tables) || tr.plan.logConst != alone.plan.logConst {
			t.Fatalf("seed %d: the remainder changed the compiled tables", seed)
		}
		want := alone.plan.solved
		want.Swept, want.Largest = chain, chain
		if tr.plan.solved != want {
			t.Fatalf("seed %d: solved %+v, want %+v", seed, tr.plan.solved, want)
		}
		if tr.clamped == nil {
			t.Fatalf("seed %d: no chain for the remainder", seed)
		}
		cg, fg := tr.clamped.Graph(), tr.free.Graph()
		if cg.NumVars() != chain || fg.NumVars() != chain || cg.NumGroups() != chain-1 || fg.NumGroups() != chain-1 {
			t.Fatalf("seed %d: chains over %d/%d variables and %d/%d groups, want the chain's %d and %d",
				seed, cg.NumVars(), fg.NumVars(), cg.NumGroups(), fg.NumGroups(), chain, chain-1)
		}
		if !cg.IsEvidence(0) || fg.IsEvidence(0) {
			t.Fatalf("seed %d: clamped chain evidence %v, free chain evidence %v", seed, cg.IsEvidence(0), fg.IsEvidence(0))
		}
		if alone.clamped != nil {
			t.Fatalf("seed %d: the small graph alone drove a chain", seed)
		}
	}
}
