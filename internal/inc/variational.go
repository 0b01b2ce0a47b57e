package inc

import (
	"context"
	"math"
	"slices"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/linalg"
)

// PairFactor is one pairwise potential of the approximated graph: weight
// W couples variables I and J (energy +W when both true with I as head —
// an Ising-style coupling whose sign carries the learned correlation).
type PairFactor struct {
	I, J factor.VarID
	W    float64
}

// UnaryFactor is a per-variable bias potential matching the variable's
// first moment under Pr(0).
type UnaryFactor struct {
	V factor.VarID
	W float64
}

// Variational is the materialization of Section 3.2.3 / Algorithm 1: a
// sparser factor graph (only unary and pairwise potentials) approximating
// Pr(0). Edge weights come from the inverse-covariance estimate X̂ of the
// log-determinant relaxation; the ℓ1 box half-width λ controls sparsity.
//
// Deviation note: Algorithm 1's line 5-7 emits a
// factor per non-zero X̂ij. We emit pairwise factors from the off-diagonal
// X̂ entries and unary factors matched to the sampled first moments, which
// keeps single-variable marginals calibrated while preserving the
// sparsity/λ tradeoff the paper studies.
type Variational struct {
	NumVars int
	Edges   []PairFactor
	Unaries []UnaryFactor
	Lambda  float64
}

// NumFactors returns the approximate graph's factor count (the quantity
// Figure 6 plots against λ).
func (vm *Variational) NumFactors() int { return len(vm.Edges) + len(vm.Unaries) }

// VariationalOptions tunes materialization.
type VariationalOptions struct {
	Lambda            float64 // ℓ1 box half-width (paper default search starts at 0.001)
	MaxDenseComponent int     // per-component cap for the dense log-det solve (default 300)
	Solver            linalg.LogDetOptions
}

func (o VariationalOptions) fill() VariationalOptions {
	if o.Lambda <= 0 {
		o.Lambda = 0.01
	}
	if o.MaxDenseComponent <= 0 {
		o.MaxDenseComponent = 300
	}
	return o
}

// MaterializeVariational runs Algorithm 1 using worlds already sampled
// from Pr(0) (the same tuple bundles the sampling approach stores — the
// paper's "both approaches need samples from the original factor graph").
// The NZ pattern comes from factor co-occurrence; the optimization runs
// per connected component so dense linear algebra stays small. Components
// larger than MaxDenseComponent use covariance thresholding directly (the
// scalable fallback; see thresholdEdges).
func MaterializeVariational(g *factor.Graph, store *gibbs.Store, opts VariationalOptions) (*Variational, error) {
	return MaterializeVariationalCtx(nil, g, store, opts)
}

// MaterializeVariationalCtx is MaterializeVariational with a cooperative
// cancellation check between per-component solves, so a background
// materialization can be preempted without waiting out the remaining
// log-det optimizations. A cancelled run returns ctx's error and no
// materialization.
func MaterializeVariationalCtx(ctx context.Context, g *factor.Graph, store *gibbs.Store, opts VariationalOptions) (*Variational, error) {
	o := opts.fill()
	vm := &Variational{NumVars: g.NumVars(), Lambda: o.Lambda}

	means := store.Means()
	// Unary potentials: logit of the sampled marginal, clamped.
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) {
			continue
		}
		m := clamp(means[v], 0.02, 0.98)
		w := 0.5 * math.Log(m/(1-m))
		if math.Abs(w) > 1e-6 {
			vm.Unaries = append(vm.Unaries, UnaryFactor{V: factor.VarID(v), W: w})
		}
	}

	comps := components(g, nil)
	for _, comp := range comps {
		if canceled(ctx) {
			return nil, ctx.Err()
		}
		if len(comp) < 2 {
			continue
		}
		if len(comp) > o.MaxDenseComponent {
			vm.thresholdEdges(g, store, comp)
			continue
		}
		if err := vm.solveComponent(g, store, comp, o); err != nil {
			return nil, err
		}
	}
	return vm, nil
}

// solveComponent runs the dense log-det relaxation on one connected
// component and emits pairwise factors for non-zero off-diagonal entries.
func (vm *Variational) solveComponent(g *factor.Graph, store *gibbs.Store, comp []int, o VariationalOptions) error {
	n := len(comp)
	rows := store.FloatWorlds(comp)
	m, err := linalg.Covariance(rows)
	if err != nil {
		return err
	}
	// NZ pattern restricted to the component.
	local := make(map[int]int, n)
	for i, v := range comp {
		local[v] = i
	}
	pat := make([]bool, n*n)
	markAdjacent(g, comp, local, pat)
	// Zero covariance entries off the pattern (Algorithm 1 line 3).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !pat[i*n+j] {
				m.Set(i, j, 0)
			}
		}
	}
	prob := &linalg.LogDetProblem{M: m, Pattern: pat, Lambda: o.Lambda}
	res, err := prob.Solve(&o.Solver)
	if err != nil {
		return err
	}
	const eps = 1e-6
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := res.X.At(i, j)
			if math.Abs(w) > eps {
				vm.Edges = append(vm.Edges, PairFactor{
					I: factor.VarID(comp[i]), J: factor.VarID(comp[j]), W: edgeWeight(w),
				})
			}
		}
	}
	return nil
}

// thresholdEdges is the scalable fallback for oversized components:
// pairwise covariances on the adjacency pattern, soft-thresholded by λ.
func (vm *Variational) thresholdEdges(g *factor.Graph, store *gibbs.Store, comp []int) {
	local := make(map[int]int, len(comp))
	for i, v := range comp {
		local[v] = i
	}
	means := store.Means()
	n := store.Len()
	if n < 2 {
		return
	}
	seen := make(map[[2]int]bool)
	visitAdjacent(g, comp, local, func(a, b int) {
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if seen[k] {
			return
		}
		seen[k] = true
		var cov float64
		for s := 0; s < n; s++ {
			va, vb := 0.0, 0.0
			if store.Bit(s, a) {
				va = 1
			}
			if store.Bit(s, b) {
				vb = 1
			}
			cov += (va - means[a]) * (vb - means[b])
		}
		cov /= float64(n - 1)
		// Soft threshold by λ: |cov| ≤ λ is dropped, larger shrinks by λ.
		if math.Abs(cov) <= vm.Lambda {
			return
		}
		w := cov - math.Copysign(vm.Lambda, cov)
		vm.Edges = append(vm.Edges, PairFactor{I: factor.VarID(a), J: factor.VarID(b), W: edgeWeight(w)})
	})
}

// edgeWeight converts an inverse-covariance-scale entry into a pairwise
// potential weight. X̂ij > 0 for {0,1} variables indicates the pair
// co-occurs more than independence predicts; the factor weight scales it
// into the energy domain.
func edgeWeight(x float64) float64 { return 4 * x }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
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
	// Union-find over the walked variables: the graph's, or the scope's by
	// position (a free member shares groups only with members, so variables
	// outside the scope are skipped, not linked).
	n := g.NumVars()
	if scope != nil {
		n = len(scope)
	}
	parent := make([]int32, n)
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
	var out [][]int
	compAt := make([]int32, n) // root → 1 + index into out
	collect := func(l int32, v int) {
		if g.IsEvidence(factor.VarID(v)) {
			return
		}
		r := find(l)
		if compAt[r] == 0 {
			out = append(out, nil)
			compAt[r] = int32(len(out))
		}
		out[compAt[r]-1] = append(out[compAt[r]-1], v)
	}
	if scope == nil {
		for gi := 0; gi < g.NumGroups(); gi++ {
			link(int32(gi))
		}
		for v := 0; v < n; v++ {
			collect(int32(v), v)
		}
		return out
	}
	for _, v := range scope {
		for _, gi := range g.AdjacentGroups(v) {
			link(gi)
		}
	}
	for l, v := range scope {
		collect(int32(l), int(v))
	}
	return out
}

// markAdjacent sets pat for pairs of component variables co-occurring in
// a group.
func markAdjacent(g *factor.Graph, comp []int, local map[int]int, pat []bool) {
	n := len(comp)
	visitAdjacent(g, comp, local, func(a, b int) {
		i, j := local[a], local[b]
		pat[i*n+j] = true
		pat[j*n+i] = true
	})
	for i := 0; i < n; i++ {
		pat[i*n+i] = true
	}
}

// visitAdjacent calls f(a, b) for every adjacent pair of free variables
// within the component (global var ids), group by group in ascending
// group order. Only the groups touching the component are walked — a
// graph of a thousand small components is not read a thousand times —
// CSR-direct with one reused buffer instead of synthesizing the nested
// view per group.
func visitAdjacent(g *factor.Graph, comp []int, local map[int]int, f func(a, b int)) {
	inComp := func(v factor.VarID) bool {
		_, ok := local[int(v)]
		return ok
	}
	var groups []int32
	for _, v := range comp {
		groups = append(groups, g.AdjacentGroups(factor.VarID(v))...)
	}
	slices.Sort(groups)
	var vars []factor.VarID
	for _, gi := range slices.Compact(groups) {
		vars = vars[:0]
		g.GroupVars(gi, func(v factor.VarID) {
			if !g.IsEvidence(v) && inComp(v) {
				vars = append(vars, v)
			}
		})
		for ai := range vars {
			for bi := ai + 1; bi < len(vars); bi++ {
				if vars[ai] != vars[bi] {
					f(int(vars[ai]), int(vars[bi]))
				}
			}
		}
	}
}

// BuildInferenceGraph applies an update to the approximated graph
// (Section 3.2.3's inference phase): the result contains the pairwise and
// unary approximation factors, evidence copied from the new graph, and
// the changed/new factor groups of the new graph. Because the
// approximation already encodes the *old* energy of groups that existed
// at materialization time, a group whose weight merely changed is
// appended with the weight difference (w_new − w_old) so the combined
// energy approximates E_old + ΔE = E_new instead of double counting.
// Structurally new groups carry their full weight. Pass oldG = nil to
// append everything at full weight.
//
// With a nil scope the graph covers every variable of newG under its own
// id. With a scope (Engine.Scope, sorted; changedNew restricted to it)
// variable i of the result is scope[i] and nothing outside the scope is
// built: the inference graph of the scope's components alone. Either way
// the final variable is an always-true anchor used by unary potentials.
func (vm *Variational) BuildInferenceGraph(oldG, newG *factor.Graph, changedNew []int32, scope []factor.VarID) *factor.Graph {
	b := factor.NewBuilder()
	local := func(v factor.VarID) factor.VarID { return v }
	if scope == nil {
		for v := 0; v < newG.NumVars(); v++ {
			addInferenceVar(b, newG, factor.VarID(v))
		}
	} else {
		// Every unary and edge of the approximation is tested against the
		// scope: a byte per variable answers for the many outside it.
		member := make([]bool, newG.NumVars())
		for _, v := range scope {
			member[v] = true
			addInferenceVar(b, newG, v)
		}
		local = func(v factor.VarID) factor.VarID {
			if !member[v] {
				return factor.NoVar
			}
			return factor.VarID(localOf(scope, v))
		}
	}
	anchor := b.AddEvidenceVar(true)
	for _, u := range vm.Unaries {
		if local(u.V) == factor.NoVar || newG.IsEvidence(u.V) {
			continue
		}
		w := b.AddWeight(u.W)
		b.AddGroup(local(u.V), w, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
	}
	for _, e := range vm.Edges {
		if local(e.I) == factor.NoVar || local(e.J) == factor.NoVar {
			continue // an end outside the scope: the other is evidence by now
		}
		w := b.AddWeight(e.W)
		b.AddGroup(local(e.I), w, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: local(e.J)}}}})
	}
	for _, gi := range changedNew {
		gr := newG.Group(int(gi))
		wv := newG.Weight(gr.Weight)
		if oldG != nil && int(gi) < oldG.NumGroups() {
			if ow := oldG.GroupWeight(int(gi)); ow == gr.Weight && int(ow) < oldG.NumWeights() {
				wv -= oldG.Weight(ow)
			}
		}
		if wv == 0 {
			continue
		}
		w := b.AddWeight(wv)
		for _, gnd := range gr.Groundings { // synthesized views are already deep copies
			for i := range gnd.Lits {
				gnd.Lits[i].Var = local(gnd.Lits[i].Var)
			}
		}
		b.AddGroup(local(gr.Head), w, gr.Sem, gr.Groundings)
	}
	return b.MustBuild()
}

// addInferenceVar appends newG's variable v to b with its evidence state.
func addInferenceVar(b *factor.Builder, newG *factor.Graph, v factor.VarID) {
	if newG.IsEvidence(v) {
		b.AddEvidenceVar(newG.EvidenceValue(v))
	} else {
		b.AddVar()
	}
}

// VariationalInfer runs Gibbs on the approximated (plus update) graph and
// returns marginals for the new graph's variables.
func VariationalInfer(vm *Variational, oldG, newG *factor.Graph, changedNew []int32, burnin, keep int, seed int64) []float64 {
	return VariationalInferCtx(nil, vm, oldG, newG, changedNew, nil, burnin, keep, seed)
}

// VariationalInferCtx is VariationalInfer with a cooperative cancellation
// check between sweeps of the approximate-graph chain, and an optional
// scope (see BuildInferenceGraph): the chain then sweeps the scope's
// variables only, and entry i of the result belongs to scope[i].
func VariationalInferCtx(ctx context.Context, vm *Variational, oldG, newG *factor.Graph, changedNew []int32, scope []factor.VarID, burnin, keep int, seed int64) []float64 {
	ig := vm.BuildInferenceGraph(oldG, newG, changedNew, scope)
	s := gibbs.New(ig, seed)
	m := s.MarginalsCtx(ctx, burnin, keep)
	if scope == nil {
		return m[:newG.NumVars()]
	}
	return m[:len(scope)]
}
