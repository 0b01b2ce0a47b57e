package inc

// The variational inference phase solves its inference graph one connected
// component at a time (solveComponents): these tests hold the two exact
// regimes to the strawman's enumeration of the whole graph, the swept
// remainder to the plain sampler it replaces, and every loop to its
// cancellation check.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// oracleCase is one generated update: an approximation vm of oldG, the
// graph newG patched from it, and the groups the patch changed.
type oracleCase struct {
	vm         *Variational
	oldG, newG *factor.Graph
	changed    []int32
	sizes      []int // the free components generated, by size
}

// genOracleCase generates a graph of at most 16 free variables in
// components of 1…9 (one of them forced to 1+seed%9), evidence variables
// inside the groups, all three semantics and negated literals; patches it —
// a grounding tombstoned, one added, a group added on a new variable, a
// weight moved, a materialized variable turned evidence —; and approximates
// the old graph by random unaries and edges within its components.
func genOracleCase(seed int64) oracleCase {
	rng := rand.New(rand.NewSource(seed))
	var c oracleCase
	for left := 15; left > 0; {
		k := 1 + rng.Intn(min(9, left))
		if len(c.sizes) == 0 {
			k = 1 + int(seed%9)
		} else if rng.Intn(3) == 0 {
			k = 1
		}
		c.sizes = append(c.sizes, k)
		left -= k
	}
	// Variable ids in random order: components and evidence interleave.
	nFree := 0
	for _, k := range c.sizes {
		nFree += k
	}
	nEv := 3 + rng.Intn(3)
	role := make([]int, nFree+nEv) // component index, or -1 for evidence
	at := 0
	for ci, k := range c.sizes {
		for i := 0; i < k; i++ {
			role[at] = ci
			at++
		}
	}
	for ; at < len(role); at++ {
		role[at] = -1
	}
	rng.Shuffle(len(role), func(i, j int) { role[i], role[j] = role[j], role[i] })
	b := factor.NewBuilder()
	comps := make([][]factor.VarID, len(c.sizes))
	var evidence []factor.VarID
	for _, r := range role {
		if r < 0 {
			evidence = append(evidence, b.AddEvidenceVar(rng.Intn(2) == 0))
		} else {
			comps[r] = append(comps[r], b.AddVar())
		}
	}
	lit := func(v factor.VarID) factor.Literal { return factor.Literal{Var: v, Neg: rng.Intn(3) == 0} }
	// body is one to three groundings, each holding must (when set), maybe
	// further members of the component and maybe evidence.
	body := func(comp []factor.VarID, must factor.VarID) []factor.Grounding {
		gnds := make([]factor.Grounding, 1+rng.Intn(3))
		for i := range gnds {
			var lits []factor.Literal
			if must != factor.NoVar {
				lits = append(lits, lit(must))
			}
			for rng.Intn(3) == 0 {
				lits = append(lits, lit(comp[rng.Intn(len(comp))]))
			}
			for len(lits) == 0 || rng.Intn(3) == 0 {
				lits = append(lits, lit(evidence[rng.Intn(len(evidence))]))
			}
			gnds[i].Lits = lits
		}
		return gnds
	}
	sem := func() factor.Semantics { return factor.Semantics(rng.Intn(3)) }
	for _, comp := range comps {
		for i, v := range comp {
			// One group chains v to its predecessor — headed by v, or by an
			// evidence variable with both in every grounding — a singleton
			// hangs on evidence alone.
			head, must := v, factor.NoVar
			if i > 0 {
				must = comp[i-1]
			}
			gnds := body(comp, must)
			if rng.Intn(4) == 0 {
				head = evidence[rng.Intn(len(evidence))]
				for k := range gnds {
					gnds[k].Lits = append(gnds[k].Lits, lit(v))
				}
			}
			b.AddGroup(head, b.AddWeight(rng.NormFloat64()), sem(), gnds)
		}
		for rng.Intn(2) == 0 {
			b.AddGroup(comp[rng.Intn(len(comp))], b.AddWeight(rng.NormFloat64()), sem(), body(comp, factor.NoVar))
		}
	}
	c.oldG = b.MustBuild()

	c.vm = &Variational{NumVars: c.oldG.NumVars()}
	for _, comp := range comps {
		for _, v := range comp {
			if rng.Intn(5) > 0 {
				c.vm.Unaries = append(c.vm.Unaries, UnaryFactor{V: v, W: rng.NormFloat64()})
			}
		}
		for i := 1; i < len(comp); i++ {
			if rng.Intn(2) == 0 {
				c.vm.Edges = append(c.vm.Edges, PairFactor{I: comp[i], J: comp[rng.Intn(i)], W: rng.NormFloat64()})
			}
		}
	}

	p := factor.NewPatch(c.oldG)
	csr := c.oldG.CSR()
	note := func(gi int) { c.changed = append(c.changed, int32(gi)) }
	// Tombstone one grounding of the first group that has two.
	for gi := 0; gi < c.oldG.NumGroups(); gi++ {
		if csr.GndOff[gi+1]-csr.GndOff[gi] >= 2 {
			p.RemoveGrounding(csr.GndOff[gi] + int32(rng.Intn(2)))
			note(gi)
			break
		}
	}
	big := comps[rng.Intn(len(comps))]
	gi := rng.Intn(c.oldG.NumGroups())
	for c.oldG.IsEvidence(c.oldG.GroupHead(gi)) {
		gi = rng.Intn(c.oldG.NumGroups())
	}
	p.AddGrounding(gi, []factor.Literal{lit(evidence[0])})
	note(gi)
	fresh := p.AddVar() // joins a component of at most 8, or stands alone
	var lits []factor.Literal
	if len(big) < 9 {
		lits = append(lits, lit(big[0]))
	}
	lits = append(lits, lit(evidence[len(evidence)-1]))
	ngi := p.AddGroup(fresh, p.AddWeight(rng.NormFloat64()), sem())
	p.AddGrounding(ngi, lits)
	note(ngi)
	if last := comps[len(comps)-1]; len(last) > 1 {
		p.SetEvidence(last[0], true, rng.Intn(2) == 0) // was free when materialized
	}
	c.newG = p.Apply()
	moved := rng.Intn(c.oldG.NumGroups())
	c.newG.SetWeight(c.newG.GroupWeight(moved), c.newG.Weight(c.newG.GroupWeight(moved))+0.7)
	for gi := 0; gi < c.oldG.NumGroups(); gi++ {
		if c.newG.GroupWeight(gi) == c.newG.GroupWeight(moved) && !slices.Contains(c.changed, int32(gi)) {
			note(gi)
		}
	}
	return c
}

// TestComponentMarginalsMatchStrawman: on generated inference graphs of at
// most 16 free variables, whole and scoped, the component-wise marginals are
// the strawman's — every world of the whole graph enumerated — to 1e-9, no
// variable is swept, and the generated components cover every size 1…9.
func TestComponentMarginalsMatchStrawman(t *testing.T) {
	sizesSeen := map[int]bool{}
	solved, scopedRuns := Solved{}, 0
	for seed := int64(0); seed < 54; seed++ {
		c := genOracleCase(seed)
		for _, k := range c.sizes {
			sizesSeen[k] = true
		}
		check := func(scope []factor.VarID, changed []int32) {
			t.Helper()
			ig := c.vm.BuildInferenceGraph(c.oldG, c.newG, changed, scope)
			want := MaterializeStrawmanMust(t, ig).ExactMarginals(nil, nil, nil)
			got, n := VariationalInferCtx(nil, c.vm, c.oldG, c.newG, changed, scope, 30, 300, seed)
			free := 0
			for v := 0; v < ig.NumVars(); v++ {
				if !ig.IsEvidence(factor.VarID(v)) {
					free++
				}
			}
			if n.Swept != 0 || n.Closed+n.Enumerated != free || len(got) != len(want) {
				t.Fatalf("seed %d (scope %v): solved %+v of %d free variables, %d marginals for %d", seed, scope, n, free, len(got), len(want))
			}
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9 {
					t.Fatalf("seed %d (scope %v): variable %d is %.12f, the strawman gives %.12f", seed, scope, v, got[v], want[v])
				}
			}
			solved.Closed, solved.Enumerated = solved.Closed+n.Closed, solved.Enumerated+n.Enumerated
		}
		check(nil, c.changed)

		// The scope of an update touching two variables: their components
		// with the evidence on their boundary, and the changed groups inside.
		rng := rand.New(rand.NewSource(seed))
		var seeds []factor.VarID
		for len(seeds) < 2 {
			if v := factor.VarID(rng.Intn(c.newG.NumVars())); !c.newG.IsEvidence(v) {
				seeds = append(seeds, v)
			}
		}
		dirty := (&Engine{vm: c.vm}).Scope(c.newG, seeds, nil)
		scope := dirty.Sorted()
		if len(scope) < c.newG.NumVars() {
			scopedRuns++
		}
		check(scope, ChangeSet{ChangedNew: c.changed}.within(c.newG, dirty).ChangedNew)
	}
	for k := 1; k <= 9; k++ {
		if !sizesSeen[k] {
			t.Errorf("no generated component of size %d", k)
		}
	}
	t.Logf("%+v over 108 inference graphs, %d of the scopes smaller than their graph", solved, scopedRuns)
	if solved.Closed < 100 || solved.Enumerated < 500 || scopedRuns < 27 {
		t.Errorf("thin coverage: %+v solved, %d scopes smaller than their graph", solved, scopedRuns)
	}
}

// chainCase is an approximation whose edges chain n variables into one
// component, interleaved with singletons and evidence, over a graph that
// adds nothing: the inference graph is the approximation.
func chainCase(n int, seed int64) (vm *Variational, g *factor.Graph, chain []factor.VarID) {
	rng := rand.New(rand.NewSource(seed))
	b := factor.NewBuilder()
	for len(chain) < n {
		switch rng.Intn(4) {
		case 0:
			b.AddVar() // a singleton
		case 1:
			b.AddEvidenceVar(rng.Intn(2) == 0)
		default:
			chain = append(chain, b.AddVar())
		}
	}
	g = b.MustBuild()
	vm = &Variational{NumVars: g.NumVars()}
	for v := 0; v < g.NumVars(); v++ {
		if !g.IsEvidence(factor.VarID(v)) {
			vm.Unaries = append(vm.Unaries, UnaryFactor{V: factor.VarID(v), W: 0.4 * rng.NormFloat64()})
		}
	}
	for i := 1; i < n; i++ {
		vm.Edges = append(vm.Edges, PairFactor{I: chain[i], J: chain[i-1], W: rng.Float64() - 0.5})
	}
	return vm, g, chain
}

// TestSweptRemainderIsThePlainSampler: a component past the bound — a chain
// of 40 at 30+300 sweeps — is left to the Gibbs chain while the singletons
// around it are solved in closed form; the chain's marginals are, bit for
// bit, those of a plain sampler of the same seed on the subgraph the
// component induces; and they sit within sampling error of the exact
// marginals of the chain's first 14 variables cut off from the rest.
func TestSweptRemainderIsThePlainSampler(t *testing.T) {
	const burnin, keep, seed = 30, 300, 11
	vm, g, chain := chainCase(40, 5)
	got, n := VariationalInferCtx(nil, vm, nil, g, nil, nil, burnin, keep, seed)
	singles := len(vm.Unaries) - len(chain)
	if n.Swept != 40 || n.Closed != singles || n.Enumerated != 0 || singles < 5 {
		t.Fatalf("solved %+v, want the chain of 40 swept and the %d singletons closed", n, singles)
	}
	ig := vm.BuildInferenceGraph(nil, g, nil, nil)
	sub, _ := ig.Induced(chain)
	want := gibbs.New(sub, seed).Marginals(burnin, keep)
	for i, v := range chain {
		if math.Float64bits(got[v]) != math.Float64bits(want[i]) {
			t.Fatalf("chain variable %d: %v, the plain sampler on the induced graph gives %v", v, got[v], want[i])
		}
	}
	for _, u := range vm.Unaries {
		if !slices.Contains(chain, u.V) && math.Abs(got[u.V]-1/(1+math.Exp(-2*u.W))) > 1e-12 {
			t.Fatalf("singleton %d: %v, want sigmoid(2·%v)", u.V, got[u.V], u.W)
		}
	}

	// The cut: the first 14 chain variables with their unaries and edges.
	// An edge's pull decays by a factor below tanh(0.25) ≈ 0.25 a hop, so
	// four hops in from the cut it is under 0.004; 300 kept sweeps put the
	// estimate's standard error at or below sqrt(0.25/300) ≈ 0.029 per
	// effectively independent draw. Bound: 0.12, four such errors.
	cut := &Variational{NumVars: vm.NumVars, Edges: vm.Edges[:13]}
	for _, u := range vm.Unaries {
		if slices.Contains(chain[:14], u.V) {
			cut.Unaries = append(cut.Unaries, u)
		}
	}
	cutG, _ := cut.BuildInferenceGraph(nil, g, nil, nil).Induced(chain[:14])
	exact := MaterializeStrawmanMust(t, cutG).ExactMarginals(nil, nil, nil)
	for i, v := range chain[:10] {
		if d := math.Abs(got[v] - exact[i]); d > 0.12 {
			t.Errorf("chain variable %d: swept estimate %v, exact on the 14-variable cut %v (off by %.3f > 0.12)", v, got[v], exact[i], d)
		}
	}
}

// countdown is a context that reports cancellation from its after-th Err
// call on, and counts the calls: how often, and for how long after the
// cancellation, a loop consulted it.
type countdown struct {
	context.Context
	after, calls int
}

func (c *countdown) Err() error {
	if c.calls++; c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// TestComponentSolverCancels: a run cancelled mid-enumeration or mid-sweep
// returns at its next check — the enumeration consults ctx every thousand
// worlds, the chain between sweeps — with nothing counted as solved that
// was not.
func TestComponentSolverCancels(t *testing.T) {
	// Enumeration: a chain of 20 is enumerable at 60 000 sweeps
	// (2^20 ≤ 60 000·20), a walk of a thousand checks.
	vm, g, chain := chainCase(20, 3)
	ctx := &countdown{Context: context.Background(), after: 7}
	_, n := VariationalInferCtx(ctx, vm, nil, g, nil, nil, 30000, 30000, 1)
	if ctx.calls != ctx.after || n.Enumerated != 0 || n.Swept != 0 {
		t.Fatalf("enumeration: %d checks for a cancellation at the %dth, solved %+v", ctx.calls, ctx.after, n)
	}
	// Uncancelled, the same run enumerates the chain.
	if _, n = VariationalInferCtx(context.Background(), vm, nil, g, nil, nil, 30000, 30000, 1); n.Enumerated != len(chain) || n.Swept != 0 {
		t.Fatalf("enumeration: solved %+v, want the chain of %d enumerated", n, len(chain))
	}
	// Sweeping: a chain of 40 under a budget of a million sweeps, cancelled
	// at the ninth check, runs at most nine of them; one more check ends the
	// estimation loop.
	vm, g, _ = chainCase(40, 3)
	ctx = &countdown{Context: context.Background(), after: 9}
	m, n := VariationalInferCtx(ctx, vm, nil, g, nil, nil, 500000, 500000, 1)
	if ctx.calls > ctx.after+1 || n.Swept != 40 || len(m) != g.NumVars() {
		t.Fatalf("sweeping: %d checks for a cancellation at the %dth, solved %+v, %d marginals", ctx.calls, ctx.after, n, len(m))
	}
}
