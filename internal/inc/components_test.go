package inc

// From-scratch inference, the variational inference phase and
// materialization solve their graph one connected component at a time
// (solveComponents): these tests hold the exact regimes' marginals to the
// strawman's enumeration of the whole graph, the exact worlds to the tables
// they are drawn from, the swept remainder to the plain chain it replaces,
// the Metropolis-Hastings runners over the exact store to the exact marginals
// of the updated graph, and every loop to its cancellation check.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

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
func genOracleCase(seed int64) oracleCase { return genUpdate(seed, true) }

// genUpdate is genOracleCase with the evidence change optional: the
// Metropolis-Hastings runners score changed groups, which a variable forced
// to a value it never took in the store hides from them.
func genUpdate(seed int64, evidenceChange bool) oracleCase {
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

	p := factor.NewPatch(c.oldG.Clone())
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
	if last := comps[len(comps)-1]; len(last) > 1 && evidenceChange {
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
	plain := gibbs.New(sub, seed)
	plain.RandomizeState() // every remainder chain starts from a random world, as the rerun's always did
	want := plain.Marginals(burnin, keep)
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

// oracleRuntimes are the chains a from-scratch pass can be handed.
var oracleRuntimes = []gibbs.Runtime{{Workers: 1}, {Workers: 4}, {Replicas: 2}}

// freeVarsOf lists g's free variables.
func freeVarsOf(g *factor.Graph) (free []factor.VarID) {
	for v := 0; v < g.NumVars(); v++ {
		if !g.IsEvidence(factor.VarID(v)) {
			free = append(free, factor.VarID(v))
		}
	}
	return free
}

// TestRerunMatchesEnumeration: on the generated graphs, as built and as
// patched (a tombstoned and an added grounding, a new variable, a variable
// turned evidence), RerunWithCtx — the from-scratch pass behind KB.Infer —
// returns the marginals of whole-graph enumeration to 1e-9 whatever the
// runtime and the seed, solves every free variable exactly and reports the
// largest component.
func TestRerunMatchesEnumeration(t *testing.T) {
	var solved Solved
	for seed := int64(0); seed < 54; seed++ {
		c := genOracleCase(seed)
		for gi, g := range []*factor.Graph{c.oldG, c.newG} {
			want := MaterializeStrawmanMust(t, g).ExactMarginals(nil, nil, nil)
			for _, rt := range oracleRuntimes {
				got, n := RerunWithCtx(nil, g, 30, 300, seed+int64(rt.Workers), rt)
				if free := len(freeVarsOf(g)); n.Swept != 0 || n.Closed+n.Enumerated != free || n.Largest < 1 || n.Largest > 10 {
					t.Fatalf("seed %d graph %d %+v: solved %+v of %d free variables", seed, gi, rt, n, free)
				}
				if gi == 0 && n.Largest != slices.Max(c.sizes) {
					t.Fatalf("seed %d: largest component %d, generated sizes %v", seed, n.Largest, c.sizes)
				}
				for v := range want {
					if math.Abs(got[v]-want[v]) > 1e-9 {
						t.Fatalf("seed %d graph %d %+v: variable %d is %.12f, enumeration gives %.12f", seed, gi, rt, v, got[v], want[v])
					}
				}
				solved.Closed, solved.Enumerated = solved.Closed+n.Closed, solved.Enumerated+n.Enumerated
			}
		}
	}
	t.Logf("%+v over 108 graphs × 3 runtimes", solved)
	if solved.Closed < 300 || solved.Enumerated < 1500 {
		t.Errorf("thin coverage: %+v", solved)
	}
}

// sweptCase is a graph whose largest component — n variables chained by
// groups of all three semantics, each reading an evidence variable too — is
// past the enumeration bound, among singletons and pairs that are not.
// induced lists the chain with the evidence on its boundary, ascending.
func sweptCase(n int, seed int64) (g *factor.Graph, chain, induced []factor.VarID) {
	rng := rand.New(rand.NewSource(seed))
	b := factor.NewBuilder()
	var evidence, singles []factor.VarID
	for len(chain) < n {
		switch rng.Intn(5) {
		case 0:
			singles = append(singles, b.AddVar())
		case 1:
			evidence = append(evidence, b.AddEvidenceVar(rng.Intn(2) == 0))
		default:
			chain = append(chain, b.AddVar())
		}
	}
	evidence = append(evidence, b.AddEvidenceVar(true))
	induced = slices.Clone(chain)
	for i, v := range chain {
		e := evidence[rng.Intn(len(evidence))]
		lits := []factor.Literal{{Var: e, Neg: rng.Intn(2) == 0}}
		if i > 0 {
			lits = append(lits, factor.Literal{Var: chain[i-1], Neg: rng.Intn(4) == 0})
		}
		b.AddGroup(v, b.AddWeight(rng.NormFloat64()), factor.Semantics(i%3), []factor.Grounding{{Lits: lits}})
		if !slices.Contains(induced, e) {
			induced = append(induced, e)
		}
	}
	for i, v := range singles {
		b.AddGroup(v, b.AddWeight(rng.NormFloat64()), factor.Ratio, []factor.Grounding{{Lits: []factor.Literal{{Var: evidence[0]}}}})
		if i%3 == 1 { // every third singleton pairs up with its predecessor
			b.AddGroup(v, b.AddWeight(1.2), factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: singles[i-1]}}}})
		}
	}
	slices.Sort(induced)
	return b.MustBuild(), chain, induced
}

// TestRerunSweepsOnlyTheRemainder: with a chain of 40 past the bound, the
// from-scratch pass hands exactly that component to the runtime's chain —
// its marginals are, bit for bit, those of the same runtime's chain on the
// subgraph the component and its boundary evidence induce, from a random
// start — and solves the rest exactly; materialization does the same with
// its worlds: the chain's columns are that chain's sweeps, the others are
// drawn.
func TestRerunSweepsOnlyTheRemainder(t *testing.T) {
	const burnin, keep, seed = 30, 300, 11
	g, chain, induced := sweptCase(40, 5)
	sub, _ := g.Induced(induced)
	exact, _ := RerunWithCtx(nil, g, burnin+1, keep, seed+1, gibbs.Runtime{}) // off the chain, no seed or budget matters
	for _, rt := range oracleRuntimes {
		got, n := RerunWithCtx(nil, g, burnin, keep, seed, rt)
		if n.Swept != 40 || n.Largest != 40 || n.Closed+n.Enumerated+n.Swept != len(freeVarsOf(g)) || n.Closed < 1 || n.Enumerated < 2 {
			t.Fatalf("%+v: solved %+v", rt, n)
		}
		plain := rt.NewChain(sub, seed)
		plain.RandomizeState()
		want := plain.Marginals(burnin, keep)
		for l, v := range induced {
			if math.Float64bits(got[v]) != math.Float64bits(want[l]) {
				t.Fatalf("%+v: chain variable %d: %v, the runtime's chain on the induced graph gives %v", rt, v, got[v], want[l])
			}
		}
		for v := range got {
			if !slices.Contains(chain, factor.VarID(v)) && got[v] != exact[v] {
				t.Fatalf("%+v: variable %d off the chain: %v, %v under another seed and budget", rt, v, got[v], exact[v])
			}
		}

		e, err := NewEngine(g, Options{MaterializationSamples: 90, Burnin: burnin, Seed: seed,
			Runtime: rt, DisableVariational: true})
		if err != nil {
			t.Fatal(err)
		}
		plain = rt.NewChain(sub, seed)
		plain.RandomizeState()
		worlds := plain.CollectSamples(burnin, 90)
		if e.Solved() != n || e.Store().Len() != 90 {
			t.Fatalf("%+v: materialization solved %+v into %d worlds", rt, e.Solved(), e.Store().Len())
		}
		// A top-up continues that chain, a batch of sweeps at a time.
		for e.Store().Len() == 90 {
			e.MaterializeForBudget(time.Microsecond)
		}
		for _, w := range storeWorlds(plain.CollectSamples(0, topUpWorlds), 0) {
			worlds.Add(w)
		}
		for i := 0; i < 90+topUpWorlds; i++ {
			for l, v := range induced {
				if e.Store().Bit(i, int(v)) != worlds.Bit(i, l) {
					t.Fatalf("%+v: world %d variable %d is not the chain's", rt, i, v)
				}
			}
		}
	}
}

// TestUpdateSolvesWhatEnumerates: an update of a graph holding a chain of 30
// past the enumeration bound among singletons and pairs (sweptCase) —
// patched: a variable added beside a singleton, a weight moved on each side
// — is solved by component. The small components get the marginals of
// enumerating the graph without the chain, to 1e-9. Only the chain goes to
// the optimizer: Solved.Swept is its 30 variables, its marginals are bit for
// bit those of the sampling runner handed the chain's scope alone, and the
// store spends the chain's share of the worlds that run replayed.
func TestUpdateSolvesWhatEnumerates(t *testing.T) {
	const keep, stored = 120, 600
	for seed := int64(0); seed < 6; seed++ {
		oldG, chain, induced := sweptCase(30, seed)
		opts := Options{MaterializationSamples: stored, KeepSamples: keep, Burnin: 20, Seed: seed}
		e, err := NewEngine(oldG, opts)
		if err != nil {
			t.Fatal(err)
		}
		var single factor.VarID // the first free variable off the chain
		for oldG.IsEvidence(single) || slices.Contains(chain, single) {
			single++
		}
		p := factor.NewPatch(oldG.Clone())
		gi := p.AddGroup(p.AddVar(), p.AddWeight(0.8), factor.Ratio)
		p.AddGrounding(gi, []factor.Literal{{Var: single}})
		newG := p.Apply()
		cs := ChangeSet{ChangedNew: []int32{int32(gi)}}
		for _, v := range []factor.VarID{chain[0], single} {
			moved := newG.AdjacentGroups(v)[0]
			w := newG.GroupWeight(int(moved))
			newG.SetWeight(w, newG.Weight(w)+0.5)
			cs.ChangedOld, cs.ChangedNew = append(cs.ChangedOld, moved), append(cs.ChangedNew, moved)
		}

		res := e.AutoInferCtx(nil, newG, cs, nil, true)
		var small []factor.VarID
		for v := factor.VarID(0); int(v) < newG.NumVars(); v++ {
			if !slices.Contains(chain, v) {
				small = append(small, v)
			}
		}
		sub, _ := newG.Induced(small)
		want := MaterializeStrawmanMust(t, sub).ExactMarginals(nil, nil, nil)
		free := len(freeVarsOf(sub))
		if n := res.Solved; res.Strategy != StrategySampling || n.Swept != 30 || n.Largest != 30 || n.Closed+n.Enumerated != free {
			t.Fatalf("seed %d: %v run, solved %+v, want the chain of 30 swept and %d variables exactly", seed, res.Strategy, n, free)
		}
		for l, v := range small {
			if math.Abs(res.Marginals[v]-want[l]) > 1e-9 {
				t.Fatalf("seed %d: variable %d is %.12f, enumeration without the chain gives %.12f", seed, v, res.Marginals[v], want[l])
			}
		}

		ref, err := NewEngine(oldG, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := newG.NewReach(true)
		r.Grow(chain[0], false)
		if scope := r.Sorted(); !slices.Equal(scope, induced) {
			t.Fatalf("seed %d: the chain's scope is %v, its induced graph %v", seed, scope, induced)
		}
		chainRes := SamplingInferCtx(nil, oldG, newG, ref.Store(), cs.within(newG, r), ComponentGroups(newG, induced), induced, keep, seed+31)
		for l, v := range induced {
			if math.Float64bits(res.Marginals[v]) != math.Float64bits(chainRes.Marginals[l]) {
				t.Fatalf("seed %d: chain variable %d is %v, the runner on the chain alone gives %v", seed, v, res.Marginals[v], chainRes.Marginals[l])
			}
		}
		n := newG.NumVars()
		if spent, share := stored-e.Store().Remaining(), (keep*len(induced)+n-1)/n; spent != share || ref.Store().Remaining() != e.Store().Remaining() {
			t.Fatalf("seed %d: the update spent %d worlds, the chain's share is %d", seed, spent, share)
		}
	}
}

// TestEmptyScopeIsExact: an update that dirtied nothing (the A1 case) is
// reported exact — nothing solved or swept, no marginal — and reads no
// stored world.
func TestEmptyScopeIsExact(t *testing.T) {
	g := chainGraph(30, 0.6)
	e, err := NewEngine(g, Options{MaterializationSamples: 200, KeepSamples: 100, Seed: 3, MeasuredOptimizer: true, CumulativeChanges: true})
	if err != nil {
		t.Fatal(err)
	}
	left := e.Store().Remaining()
	res := e.AutoInferCtx(nil, g, ChangeSet{}, g.NewReach(true), true)
	if res.Strategy != StrategyExact || res.Solved != (Solved{}) || res.Marginals != nil || res.AcceptanceRate != 1 || res.Probed != -1 {
		t.Fatalf("empty scope reported %+v", res)
	}
	if e.Store().Remaining() != left {
		t.Fatalf("empty scope touched the store (%d of %d left)", e.Store().Remaining(), left)
	}
}

// chiSquareBound is the 1 − 1e-5 quantile of χ² with df degrees of freedom
// (Wilson–Hilferty).
func chiSquareBound(df int) float64 {
	k := float64(df)
	return k * math.Pow(1-2/(9*k)+4.27*math.Sqrt(2/(9*k)), 3)
}

// TestExactWorldsMatchTheirTables: the worlds NewEngine stores are
// independent exact draws. On generated graphs, 20 000 worlds each: every
// component's world frequencies pass a χ² test against its enumerated
// distribution (1e-5 level; cells expecting under five worlds pooled), and
// every column mean sits within four standard errors (plus one world) of the
// exact marginal.
func TestExactWorldsMatchTheirTables(t *testing.T) {
	const worlds = 20000
	tested, cells := 0, 0
	for seed := int64(0); seed < 18; seed++ {
		g := genOracleCase(seed).oldG
		e, err := NewEngine(g, Options{MaterializationSamples: worlds, Seed: seed + 100, DisableVariational: true})
		if err != nil {
			t.Fatal(err)
		}
		st := e.Store()
		if n := e.Solved(); n.Swept != 0 || st.Len() != worlds {
			t.Fatalf("seed %d: solved %+v into %d worlds", seed, n, st.Len())
		}
		exact := MaterializeStrawmanMust(t, g).ExactMarginals(nil, nil, nil)
		for v, m := range st.Means() {
			se := math.Sqrt(exact[v] * (1 - exact[v]) / worlds)
			if math.Abs(m-exact[v]) > 4*se+1.0/worlds {
				t.Errorf("seed %d: column %d has mean %.5f, exact marginal %.5f (standard error %.5f)", seed, v, m, exact[v], se)
			}
		}
		// A component's distribution: the graph's energy over its worlds, the
		// other components held anywhere (they are independent of it).
		assign := make([]bool, g.NumVars())
		for v := range assign {
			assign[v] = g.IsEvidence(factor.VarID(v)) && g.EvidenceValue(factor.VarID(v))
		}
		for _, comp := range components(g, nil) {
			k := len(comp)
			p := make([]float64, 1<<k)
			z := 0.0
			for w := range p {
				for b, v := range comp {
					assign[v] = w>>b&1 == 1
				}
				p[w] = math.Exp(g.Energy(assign))
				z += p[w]
			}
			seen := make([]float64, 1<<k)
			for i := 0; i < worlds; i++ {
				w := 0
				for b, v := range comp {
					if st.Bit(i, v) {
						w |= 1 << b
					}
				}
				seen[w]++
			}
			var chi, poolSeen, poolWant float64
			df := -1
			for w := range p {
				want := worlds * p[w] / z
				if want < 5 {
					poolSeen, poolWant = poolSeen+seen[w], poolWant+want
					continue
				}
				chi += (seen[w] - want) * (seen[w] - want) / want
				df++
			}
			if poolWant >= 5 {
				chi += (poolSeen - poolWant) * (poolSeen - poolWant) / poolWant
				df++
			} else if poolSeen > poolWant+6 {
				t.Errorf("seed %d component %v: %v worlds in cells that expect %.2f together", seed, comp, poolSeen, poolWant)
			}
			if df < 1 {
				continue
			}
			tested, cells = tested+1, cells+df+1
			if chi > chiSquareBound(df) {
				t.Errorf("seed %d component %v: χ² = %.1f over %d degrees of freedom (bound %.1f)", seed, comp, chi, df, chiSquareBound(df))
			}
		}
	}
	t.Logf("%d components, %d cells", tested, cells)
	if tested < 60 {
		t.Errorf("thin coverage: %d components tested", tested)
	}
}

// lag1 is the lag-1 autocorrelation of column v over the store's worlds.
func lag1(st *gibbs.Store, v int) float64 {
	n := st.Len()
	mean := st.Means()[v]
	var num, den float64
	for i := 0; i < n; i++ {
		x := -mean
		if st.Bit(i, v) {
			x++
		}
		den += x * x
		if i+1 < n {
			y := -mean
			if st.Bit(i+1, v) {
				y++
			}
			num += x * y
		}
	}
	return num / den
}

// TestExactWorldsAreIndependent: on a strongly coupled pair a Gibbs chain's
// consecutive worlds repeat each other — lag-1 autocorrelation of a column
// above 0.3 — where the exact store's are independent draws: within 0.05 of
// zero over 6 000 worlds (three standard errors are 0.039). Same seed, same
// store; another seed, another.
func TestExactWorldsAreIndependent(t *testing.T) {
	b := factor.NewBuilder()
	x, y := b.AddVar(), b.AddVar()
	b.AddGroup(x, b.AddWeight(2.5), factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: y}}}})
	b.AddGroup(y, b.AddWeight(2.5), factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: x}}}})
	g := b.MustBuild()
	opts := Options{MaterializationSamples: 6000, Seed: 3, DisableVariational: true}
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	chain := gibbs.New(g, 3)
	chain.RandomizeState()
	swept := chain.CollectSamples(50, 6000)
	for _, v := range []int{int(x), int(y)} {
		if r := lag1(swept, v); r < 0.3 {
			t.Errorf("column %d of the Gibbs chain: lag-1 autocorrelation %.3f, want the pair sticky (> 0.3)", v, r)
		}
		if r := lag1(e.Store(), v); math.Abs(r) > 0.05 {
			t.Errorf("column %d of the exact store: lag-1 autocorrelation %.3f, want 0 ± 0.05", v, r)
		}
	}
	same, _ := NewEngine(g, opts)
	opts.Seed++
	other, _ := NewEngine(g, opts)
	if !reflect.DeepEqual(storeWorlds(e.Store(), 0), storeWorlds(same.Store(), 0)) {
		t.Error("the same seed drew another store")
	}
	if reflect.DeepEqual(storeWorlds(e.Store(), 0), storeWorlds(other.Store(), 0)) {
		t.Error("another seed drew the same store")
	}
}

// storeWorlds unpacks the store's worlds from the from-th on.
func storeWorlds(st *gibbs.Store, from int) (out [][]bool) {
	for i := from; i < st.Len(); i++ {
		out = append(out, st.Get(i, nil))
	}
	return out
}

// TestTopUpContinuesTheStream: MaterializeForBudget leaves the worlds
// NewEngine stored alone and appends whole batches; the sequence of worlds is
// a function of the seed, not of where budgets ended — two engines topped up
// for different budgets agree on every world both hold — and the added worlds
// are exact draws too: their column means sit within four standard errors of
// the exact marginals.
func TestTopUpContinuesTheStream(t *testing.T) {
	g := genOracleCase(4).oldG
	opts := Options{MaterializationSamples: 100, Seed: 9, DisableVariational: true}
	a, _ := NewEngine(g, opts)
	b, _ := NewEngine(g, opts)
	first := storeWorlds(a.Store(), 0)
	for a.Store().Len() < 100+40*topUpWorlds {
		a.MaterializeForBudget(time.Millisecond)
	}
	b.MaterializeForBudget(3 * time.Millisecond)
	if n := a.Store().Len() - 100; n%topUpWorlds != 0 || b.Store().Len() <= 100 {
		t.Fatalf("top-ups left %d and %d worlds", a.Store().Len(), b.Store().Len())
	}
	if !reflect.DeepEqual(storeWorlds(a.Store(), 0)[:100], first) {
		t.Fatal("a top-up rewrote the materialized worlds")
	}
	common := min(a.Store().Len(), b.Store().Len())
	if !reflect.DeepEqual(storeWorlds(a.Store(), 0)[:common], storeWorlds(b.Store(), 0)[:common]) {
		t.Fatal("two top-ups of the same seed drew different worlds")
	}
	added := gibbs.NewStore(g.NumVars())
	for _, w := range storeWorlds(a.Store(), 100) {
		added.Add(w)
	}
	exact := MaterializeStrawmanMust(t, g).ExactMarginals(nil, nil, nil)
	n := float64(added.Len())
	for v, m := range added.Means() {
		if se := math.Sqrt(exact[v] * (1 - exact[v]) / n); math.Abs(m-exact[v]) > 4*se+1/n {
			t.Errorf("column %d of the %v added worlds has mean %.4f, exact marginal %.4f (standard error %.4f)", v, n, m, exact[v], se)
		}
	}
}

// TestSamplingOverExactStoreMatchesExactMarginals is the Metropolis-Hastings
// half of the differential oracle: on generated updates of at most 17 free
// variables (a grounding tombstoned, one added, a group on a new variable, a
// weight moved) the sampling runner — one global acceptance test, and one
// test per connected component — replaying 6 000 exact independent worlds of
// the old graph, lands within 0.05 of the exact marginals of the updated
// graph — enumerated whole — on every variable. (The bound is
// sampling error: an independence chain of n proposals at acceptance rate a
// has a standard error near sqrt(p(1−p)(2−a)/(a·n)) ≤ 0.013 at a = 0.5;
// the smallest acceptance rate met here is logged.)
func TestSamplingOverExactStoreMatchesExactMarginals(t *testing.T) {
	const keep, bound = 6000, 0.05
	worst, lowest := 0.0, 1.0
	for seed := int64(0); seed < 12; seed++ {
		c := genUpdate(seed, false)
		cs := ChangeSet{ChangedOld: clampToGraph(c.oldG, c.changed), ChangedNew: c.changed, NewFeatures: true}
		want := MaterializeStrawmanMust(t, c.newG).ExactMarginals(nil, nil, nil)
		run := map[string][]DecompGroup{"global": nil, "decomposed": ComponentGroups(c.newG, nil)}
		for name, blocks := range run {
			e, err := NewEngine(c.oldG, Options{MaterializationSamples: keep + 1, KeepSamples: keep, Seed: seed + 50, DisableVariational: true})
			if err != nil {
				t.Fatal(err)
			}
			res := SamplingInferCtx(nil, c.oldG, c.newG, e.Store(), cs, blocks, nil, keep, seed+50+31)
			got, accept := res.Marginals, res.AcceptanceRate
			lowest = min(lowest, accept)
			for v := range want {
				d := math.Abs(got[v] - want[v])
				worst = max(worst, d)
				if d > bound {
					t.Errorf("seed %d %s: variable %d is %.4f, exact %.4f (acceptance %.2f)", seed, name, v, got[v], want[v], accept)
				}
			}
		}
	}
	t.Logf("largest error %.4f, lowest acceptance rate %.2f", worst, lowest)
}

// TestFromScratchPassesCancel: cancelled at its k-th check for every k until
// one run completes, materialization returns the context's error and no
// engine each time — between components, inside an enumeration, between the
// chain's sweeps, while columns are drawn — and the from-scratch marginals
// pass stops counting.
func TestFromScratchPassesCancel(t *testing.T) {
	b := factor.NewBuilder()
	anchor := b.AddEvidenceVar(true)
	var prev factor.VarID
	for i := 0; i < 700; i++ { // 600 variables alone or in pairs, a chain of 11, a chain of 89
		v := b.AddVar()
		b.AddGroup(v, b.AddWeight(0.1*float64(i%7)-0.3), factor.Ratio, []factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
		if i%3 == 1 && i < 600 || i > 600 && i != 611 {
			b.AddGroup(v, b.AddWeight(0.5), factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: prev}}}})
		}
		prev = v
	}
	g := b.MustBuild()
	// 240 sweeps enumerate the chain of 11 (2048 worlds: two checks inside).
	opts := Options{MaterializationSamples: 40, Burnin: 200, Seed: 1, DisableVariational: true}
	full, err := NewEngine(g, opts)
	if want := (Solved{Closed: 200, Enumerated: 411, Swept: 89, Largest: 89}); err != nil || full.Solved() != want {
		t.Fatalf("uncancelled: %v, solved %+v, want %+v", err, full.Solved(), want)
	}
	for after := 1; ; after++ {
		ctx := &countdown{Context: context.Background(), after: after}
		e, err := NewEngineCtx(ctx, g, opts)
		if err == nil {
			if after < 250 || !reflect.DeepEqual(storeWorlds(e.Store(), 0), storeWorlds(full.Store(), 0)) {
				t.Fatalf("completed after %d checks; the same store: %v", after-1, after >= 250)
			}
			break
		}
		// At most three more: the sampling loop after a cancelled burn-in,
		// draw's own check, and the error NewEngineCtx returns.
		if e != nil || err != context.Canceled || ctx.calls > after+3 {
			t.Fatalf("cancelled at check %d: engine %v, error %v, %d checks made", after, e != nil, err, ctx.calls)
		}
	}
	ctx := &countdown{Context: context.Background(), after: 2}
	if _, n := RerunWithCtx(ctx, g, 30, 300, 1, gibbs.Runtime{}); n.Swept != 0 || n.Closed+n.Enumerated > 256*2 {
		t.Fatalf("marginals cancelled at the second check solved %+v", n)
	}
}
