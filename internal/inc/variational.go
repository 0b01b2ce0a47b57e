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
}

// maxDenseComponent is MaxDenseComponent's default.
const maxDenseComponent = 300

func (o VariationalOptions) fill() VariationalOptions {
	if o.Lambda <= 0 {
		o.Lambda = 0.01
	}
	if o.MaxDenseComponent <= 0 {
		o.MaxDenseComponent = maxDenseComponent
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
	res, err := prob.Solve(nil)
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
		groups = g.AppendAdjacentGroups(groups, factor.VarID(v))
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
// built: the inference graph of the scope's components alone.
//
// A unary potential is a Linear group over one grounding without literals
// (satisfied in every world: energy ±w with the head). The changed groups
// are copied from newG's literal pool to the builder's
// (factor.Builder.CopyGroup), no nested view synthesized in between.
func (vm *Variational) BuildInferenceGraph(oldG, newG *factor.Graph, changedNew []int32, scope []factor.VarID) *factor.Graph {
	b := factor.NewBuilder()
	local := func(v factor.VarID) factor.VarID { return v }
	if scope == nil {
		// Every unary, edge and changed group brings a weight of its own.
		groups := len(vm.Unaries) + len(vm.Edges) + len(changedNew)
		b.Grow(newG.NumVars(), groups, groups)
		for v := 0; v < newG.NumVars(); v++ {
			addInferenceVar(b, newG, factor.VarID(v))
		}
	} else {
		// Every unary and edge of the approximation is tested against the
		// scope: a byte per variable answers for the many outside it.
		member := make([]bool, newG.NumVars())
		groups := len(scope) + len(changedNew) // at most a unary per member; edges grow it
		b.Grow(len(scope), groups, groups)
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
	for _, u := range vm.Unaries {
		if local(u.V) == factor.NoVar || newG.IsEvidence(u.V) {
			continue
		}
		b.AddGroup(local(u.V), b.AddWeight(u.W), factor.Linear, nil)
		b.AddGrounding(nil)
	}
	for _, e := range vm.Edges {
		if local(e.I) == factor.NoVar || local(e.J) == factor.NoVar {
			continue // an end outside the scope: the other is evidence by now
		}
		b.AddGroup(local(e.I), b.AddWeight(e.W), factor.Linear, nil)
		b.AddGrounding([]factor.Literal{{Var: local(e.J)}})
	}
	for _, gi := range changedNew {
		w := newG.GroupWeight(int(gi))
		wv := newG.Weight(w)
		if oldG != nil && int(gi) < oldG.NumGroups() {
			if ow := oldG.GroupWeight(int(gi)); ow == w && int(ow) < oldG.NumWeights() {
				wv -= oldG.Weight(ow)
			}
		}
		if wv != 0 {
			b.CopyGroup(newG, gi, b.AddWeight(wv), local)
		}
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

// VariationalInfer returns marginals for the new graph's variables under
// the approximated (plus update) graph; see VariationalInferCtx.
func VariationalInfer(vm *Variational, oldG, newG *factor.Graph, changedNew []int32, burnin, keep int, seed int64) []float64 {
	m, _ := VariationalInferCtx(nil, vm, oldG, newG, changedNew, nil, burnin, keep, seed)
	return m
}

// VariationalInferCtx is the inference phase of the variational approach:
// it builds the inference graph (BuildInferenceGraph; with a scope, entry i
// of the result belongs to scope[i]) and solves it one connected component
// of its free variables at a time (RerunWithCtx) — evidence cuts the sparse
// approximation into graphs small enough for the strawman of Section 3.2.1 —
// under a budget of burnin+keep sweeps, on the sequential chain for whatever
// is past the bound. A cancelled run returns what it has.
func VariationalInferCtx(ctx context.Context, vm *Variational, oldG, newG *factor.Graph, changedNew []int32, scope []factor.VarID, burnin, keep int, seed int64) ([]float64, Solved) {
	ig := vm.BuildInferenceGraph(oldG, newG, changedNew, scope)
	return RerunWithCtx(ctx, ig, burnin, keep, seed, gibbs.Runtime{})
}
