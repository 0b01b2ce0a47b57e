package inc

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// The whole-graph evaluator. Conditioned on evidence a KBC factor graph
// falls apart into connected components of its free variables, most of them
// of one to three variables, and the strawman of Section 3.2.1 — every world
// enumerated — wins wherever it is feasible (Figure 5(a)). solveComponents
// walks the components once and sorts each, by its size k alone, into one of
// three regimes:
//
//   - k = 1: the variable's distribution is its conditional,
//     sigmoid(EnergyDelta) — one evaluation, exact.
//   - 2^k ≤ sweeps·k and k ≤ MaxStrawmanVars: every world of the component
//     is visited once in Gray-code order on the state's counters (one
//     EnergyDelta and one Set per world) and weighed exactly. The bound is
//     the run's own sweep budget: sampling the component costs sweeps·k
//     conditional evaluations and flips, enumerating it 2^k, so enumeration
//     is taken exactly when it is also the cheaper side (k ≤ 11 at 30+300
//     sweeps, k ≤ 12 at 50+500).
//   - otherwise the component is left to a Gibbs chain (restChain).
//
// A solved component is a table of world weights with two read-outs:
// marginals (componentMarginals: an update's dirty components in
// AutoInferCtx; through RerunWithCtx from-scratch inference, the rerun
// fallbacks, the variational runner) and worlds (the worlds type: exact
// independent draws for the materialized sample store).

// Solved counts how an evaluation came by a graph's free variables: Closed
// in closed form (a component of one), Enumerated by walking every world of
// their component, Swept by a Gibbs chain. Largest is the size of the
// largest component met, whichever way it went.
type Solved struct {
	Closed, Enumerated, Swept int
	Largest                   int
}

// Enumerable is the size rule: a component of k variables under a budget of
// sweeps is solved by visiting its 2^k worlds when k ≤ MaxStrawmanVars and
// 2^k ≤ sweeps·k — the conditional evaluations sampling it would cost.
func Enumerable(k, sweeps int) bool { return k <= MaxStrawmanVars && 1<<k <= sweeps*k }

// solver is the scratch of one solveComponents call: the State its
// conditionals and enumerations run on, the component walk's arrays and
// one enumeration's worlds. A whole-graph solve would otherwise allocate
// all of them at the graph's size on every from-scratch pass and every
// update left unscoped; solvers keeps them between calls, one per caller
// at a time.
type solver struct {
	st      factor.State
	comps   compBuf
	weights []float64
}

var solvers = sync.Pool{New: func() any { return new(solver) }}

// solveComponents walks the connected components of g's free variables
// under a budget of sweeps, hands each solved one to table — weights[i] the
// unnormalized probability of the world i ^ i>>1 (bit b is comp[b]), z their
// sum; comp and weights are scratch that is valid for the call — and
// returns the variables of the others, ascending. ctx is checked every few
// hundred components and every thousand worlds of an enumeration; ok is
// false when it was cancelled, n then counting what was handed over before.
func solveComponents(ctx context.Context, g *factor.Graph, sweeps int, table func(comp []int, weights []float64, z float64)) (rest []factor.VarID, n Solved, ok bool) {
	s := solvers.Get().(*solver)
	defer func() {
		s.st.G = nil // the pool keeps the arrays, not the graph
		solvers.Put(s)
	}()
	st := &s.st
	st.Reset(g)
	var lone [2]float64
	for ci, comp := range s.comps.components(g, nil) {
		if ci&255 == 0 && canceled(ctx) {
			return nil, n, false
		}
		k := len(comp)
		n.Largest = max(n.Largest, k)
		switch {
		case k == 1:
			lone[1] = st.CondProb(factor.VarID(comp[0]))
			lone[0] = 1 - lone[1]
			table(comp, lone[:], 1)
			n.Closed++
		case Enumerable(k, sweeps):
			weights, z := enumerate(ctx, st, comp, s.weights)
			if weights == nil {
				return nil, n, false
			}
			s.weights = weights
			table(comp, weights, z)
			n.Enumerated += k
		default:
			for _, v := range comp {
				rest = append(rest, factor.VarID(v))
			}
		}
	}
	n.Swept = len(rest)
	slices.Sort(rest) // components come by smallest member: interleaved
	return rest, n, true
}

// enumerate weighs every world of comp — the free variables of one connected
// component of st.G: it visits the 2^k worlds in Gray-code order, each one
// flip away from the last, so a world's energy relative to the all-false one
// is the running sum of the flipped variables' EnergyDelta, and returns
// exp(energy − the largest) per world, in walk order, with their sum. buf is
// scratch the result is cut from (grown when too small); the result is nil
// when ctx was cancelled mid-walk.
func enumerate(ctx context.Context, st *factor.State, comp []int, buf []float64) (weights []float64, z float64) {
	k := len(comp)
	for _, v := range comp {
		st.Set(factor.VarID(v), false)
	}
	if cap(buf) < 1<<k {
		buf = make([]float64, 1<<k)
	}
	weights = buf[:1<<k]
	// World i of the walk is the assignment i ^ i>>1; step i flips the
	// variable at the lowest set bit of i.
	weights[0] = 0
	var e, top float64
	for i := 1; i < len(weights); i++ {
		if i&1023 == 1 && canceled(ctx) {
			return nil, 0
		}
		v := factor.VarID(comp[bits.TrailingZeros(uint(i))])
		if d := st.EnergyDelta(v); st.Assign[v] {
			e -= d
			st.Set(v, false)
		} else {
			e += d
			st.Set(v, true)
		}
		weights[i] = e
		top = max(top, e)
	}
	for i, e := range weights {
		p := math.Exp(e - top)
		weights[i] = p
		z += p
	}
	return weights, z
}

// restChain is the runtime's chain over the components solveComponents left
// to sampling, started from a random world: it runs on the subgraph induced
// by rest — whole components of free variables, ascending — and the evidence
// on their boundary, whose variable l is vars[l]. A free member keeps every
// one of its groups there, so the chain is the one the runtime would run on
// those components alone.
func restChain(g *factor.Graph, rest []factor.VarID, seed int64, rt gibbs.Runtime) (chain gibbs.Chain, vars []factor.VarID) {
	r := g.NewReach(true)
	for _, v := range rest {
		r.Grow(v, false)
	}
	vars = r.Sorted()
	sub, _ := g.Induced(vars)
	chain = rt.NewChain(sub, seed)
	chain.RandomizeState()
	return chain, vars
}

// componentMarginals is the marginal read-out of solveComponents: g's
// marginals, evidence reporting its value and every component solved under
// the budget of sweeps exactly, and the variables of the others (rest,
// ascending, left at 0).
func componentMarginals(ctx context.Context, g *factor.Graph, sweeps int) (out []float64, rest []factor.VarID, n Solved, ok bool) {
	out = make([]float64, g.NumVars())
	for v := range out {
		if id := factor.VarID(v); g.IsEvidence(id) && g.EvidenceValue(id) {
			out[v] = 1
		}
	}
	rest, n, ok = solveComponents(ctx, g, sweeps, func(comp []int, weights []float64, z float64) {
		var sums [MaxStrawmanVars]float64
		for i, p := range weights {
			for world := uint(i ^ i>>1); world != 0; world &= world - 1 {
				sums[bits.TrailingZeros(world)] += p
			}
		}
		for b, v := range comp {
			out[v] = sums[b] / z
		}
	})
	return out, rest, n, ok
}

// RerunWithCtx is the from-scratch baseline ("Rerun" in Section 4.2), and
// the solver of a variational run's inference graph: the marginals of g
// (evidence reports its value), exact for every component solveComponents
// solves under the budget of burnin+keep sweeps — the seed does not move
// those — and estimated over keep sweeps after burnin for the rest, on the
// chain the runtime config selects (sequential, sharded, or replica). A
// cancelled run returns what it has.
func RerunWithCtx(ctx context.Context, g *factor.Graph, burnin, keep int, seed int64, rt gibbs.Runtime) ([]float64, Solved) {
	out, rest, n, ok := componentMarginals(ctx, g, burnin+keep)
	if !ok || len(rest) == 0 {
		return out, n
	}
	chain, vars := restChain(g, rest, seed, rt)
	m := chain.MarginalsCtx(ctx, burnin, keep)
	for l, v := range vars {
		if !g.IsEvidence(v) {
			out[v] = m[l]
		}
	}
	return out, n
}

// worlds is the read-out of exact samples: it draws independent worlds of
// one graph, a column — all the worlds' values of one solved component — at
// a time. Every world starts as mode (the evidence, each solved component's
// likeliest world); a component then leaves its mode in a world with
// probability q, independently, so the worlds where it does are found by
// geometric skips — most conditionals of a KBC graph are saturated, and a
// column costs one draw, not one per world — and the world it takes there is
// drawn from the rest of its table. Components past the enumeration bound
// are swept by the runtime's chain, one world a sweep after burn-in, and
// their columns copied in.
type worlds struct {
	rng   *rand.Rand
	mode  []bool
	comps []worldComp
	vars  []int32   // the solved components' variables, component after component
	cdf   []float64 // the enumerated components' tables, one after another

	chain     gibbs.Chain // nil when every component is solved
	chainVars []factor.VarID
	burnin    int // sweeps before the chain's first world; 0 once they are done
}

// worldComp is one solved component: its k variables from worlds.vars[at],
// −1/log(1−q) — the mean run of worlds it stays on its mode, up to rounding
// down; 0 when it never leaves — and, when k > 1, its table from
// worlds.cdf[cdf]: entry w is the summed weight of the worlds 0…w (bit b is
// variable b) with the mode's own weight left out.
type worldComp struct {
	at, cdf int32
	k       uint8
	stay    float64
}

// topUpWorlds is how many worlds a top-up draws at a time: enough that the
// per-component cost of a column is shared, few enough that a budget is
// overshot by little.
const topUpWorlds = 64

// newWorlds evaluates g under a budget of o.Burnin plus n sweeps, and
// reports how its components were solved; nil when ctx was cancelled. The
// tables hold g's weights as they are now: a later write to them does not
// move the worlds drawn.
func newWorlds(ctx context.Context, g *factor.Graph, o Options, n int, seed int64) (*worlds, Solved) {
	w := &worlds{rng: rand.New(rand.NewSource(seed)), mode: make([]bool, g.NumVars()), burnin: o.Burnin}
	for v := range w.mode {
		w.mode[v] = g.IsEvidence(factor.VarID(v)) && g.EvidenceValue(factor.VarID(v))
	}
	rest, solved, ok := solveComponents(ctx, g, o.Burnin+n, w.table)
	if !ok {
		return nil, solved
	}
	if len(rest) > 0 {
		w.chain, w.chainVars = restChain(g, rest, seed, o.Runtime)
	}
	return w, solved
}

// table adds a solved component.
func (w *worlds) table(comp []int, weights []float64, z float64) {
	c := worldComp{at: int32(len(w.vars)), cdf: int32(len(w.cdf)), k: uint8(len(comp))}
	w.cdf = append(w.cdf, weights...)
	cdf := w.cdf[c.cdf:]
	mode := 0
	for i, p := range weights { // by world, not by step of the walk
		cdf[i^i>>1] = p
		if p > weights[mode] {
			mode = i
		}
	}
	mode ^= mode >> 1
	cdf[mode] = 0
	q := 0.0
	for world, p := range cdf {
		q += p
		cdf[world] = q
	}
	if q /= z; q > 0 {
		c.stay = -1 / math.Log1p(-q)
	}
	for b, v := range comp {
		w.mode[v] = mode>>b&1 == 1
		w.vars = append(w.vars, int32(v))
	}
	if c.k == 1 {
		w.cdf = w.cdf[:c.cdf] // off its mode a lone variable has one world to take
	}
	w.comps = append(w.comps, c)
}

// draw appends n worlds to st, the first call after burning the chain in. It
// reports false, st untouched, when ctx was cancelled — checked between
// sweeps and every few hundred columns.
func (w *worlds) draw(ctx context.Context, st *gibbs.Store, n int) bool {
	var swept *gibbs.Store
	if w.chain != nil {
		swept = w.chain.CollectSamplesCtx(ctx, w.burnin, n)
		if canceled(ctx) {
			return false
		}
		w.burnin = 0
	}
	cols := st.NewColumns(w.mode, n)
	for ci := range w.comps {
		if ci&255 == 0 && canceled(ctx) {
			return false
		}
		c := &w.comps[ci]
		if c.stay == 0 {
			continue
		}
		vars := w.vars[c.at : c.at+int32(c.k)]
		for i := 0; ; i++ {
			// Worlds up to the next one off the mode: geometric in q, an
			// exponential draw (the ziggurat: no logarithm) rounded down.
			gap := w.rng.ExpFloat64() * c.stay
			if gap >= float64(n-i) {
				break
			}
			i += int(gap)
			if c.k == 1 {
				cols.Flip(i, int(vars[0]))
				continue
			}
			cdf := w.cdf[c.cdf:][:1<<c.k]
			world := len(cdf)
			for world == len(cdf) { // u can round up to the total, once in 2^53
				u := w.rng.Float64() * cdf[len(cdf)-1]
				world = sort.Search(len(cdf), func(x int) bool { return cdf[x] > u })
			}
			for b, v := range vars {
				if w.mode[v] != (world>>b&1 == 1) {
					cols.Flip(i, int(v))
				}
			}
		}
	}
	for l, v := range w.chainVars {
		if w.chain.Graph().IsEvidence(factor.VarID(l)) {
			continue
		}
		for i := 0; i < n; i++ {
			if swept.Bit(i, l) {
				cols.Flip(i, int(v)) // mode is false off the solved components
			}
		}
	}
	st.Append(cols)
	return true
}

// components returns the connected components of the graph's variable
// adjacency (variables sharing a group), each as a sorted var list, in
// order of smallest member. Evidence variables do not connect components
// (they are fixed). With a non-nil scope (Engine.Scope, sorted) only the
// scope's variables and the groups touching them are walked, and nothing
// is sized by the graph. Groups are walked CSR-direct
// (factor.Graph.GroupVars reports the head first, then each live
// grounding's variables), so no nested view is synthesized per group.
func components(g *factor.Graph, scope []factor.VarID) [][]int {
	return new(compBuf).components(g, scope)
}

// compBuf is the scratch of components: the union-find, the component
// index of each root, the sizes, and the components themselves, all cut
// from arrays a later call reuses.
type compBuf struct {
	parent, compAt []int32
	sizes          []int
	flat           []int
	out            [][]int
	adj            []int32
}

// components is the package function on b's arrays: the result is valid
// until b's next call.
func (b *compBuf) components(g *factor.Graph, scope []factor.VarID) [][]int {
	// Union-find over the walked variables: the graph's, or the scope's by
	// position (a free member shares groups only with members, so variables
	// outside the scope are skipped, not linked).
	n := g.NumVars()
	if scope != nil {
		n = len(scope)
	}
	parent := slices.Grow(b.parent[:0], n)[:n]
	b.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	link := func(gi int32) {
		anchor := int32(-1)
		g.GroupVars(gi, func(v factor.VarID) {
			l := int32(localOf(scope, v))
			if l < 0 || g.IsEvidence(v) {
				return
			}
			if anchor == -1 {
				anchor = l
			} else if ra, rb := find(anchor), find(l); ra != rb {
				parent[ra] = rb
			}
		})
	}
	if scope == nil {
		for gi := 0; gi < g.NumGroups(); gi++ {
			link(int32(gi))
		}
	} else {
		for _, v := range scope {
			b.adj = g.AppendAdjacentGroups(b.adj[:0], v)
			for _, gi := range b.adj {
				link(gi)
			}
		}
	}
	// Two passes over the walked variables — size every component, then
	// fill them — so all are cut from one backing array.
	free := func(l int) (v int, ok bool) {
		if v = l; scope != nil {
			v = int(scope[l])
		}
		return v, !g.IsEvidence(factor.VarID(v))
	}
	sizes := b.sizes[:0]
	compAt := slices.Grow(b.compAt[:0], n)[:n] // root → 1 + its index in sizes and out
	clear(compAt)
	b.compAt = compAt
	total := 0
	for l := 0; l < n; l++ {
		if _, ok := free(l); ok {
			r := find(int32(l))
			if compAt[r] == 0 {
				sizes = append(sizes, 0)
				compAt[r] = int32(len(sizes))
			}
			sizes[compAt[r]-1]++
			total++
		}
	}
	b.sizes = sizes
	flat := slices.Grow(b.flat[:0], total)[:total]
	b.flat = flat
	out := slices.Grow(b.out[:0], len(sizes))[:len(sizes)]
	b.out = out
	for c, size := range sizes {
		out[c], flat = flat[:0:size], flat[size:]
	}
	for l := 0; l < n; l++ {
		if v, ok := free(l); ok {
			c := compAt[find(int32(l))] - 1
			out[c] = append(out[c], v)
		}
	}
	return out
}
