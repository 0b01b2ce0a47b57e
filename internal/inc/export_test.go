package inc

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// Within exports ChangeSet.within to the external test package.
func (c ChangeSet) Within(g *factor.Graph, r *factor.Reach) ChangeSet { return c.within(g, r) }

// AdjacentPairs lists, for every connected component of g's free
// variables, the pairs visitAdjacent reports, in order — what the
// variational materialization derives Edges from. With ref it uses
// visitAdjacentRef instead.
func AdjacentPairs(g *factor.Graph, ref bool) (pairs [][2]int) {
	visit := visitAdjacent
	if ref {
		visit = visitAdjacentRef
	}
	for _, comp := range components(g, nil) {
		local := make(map[int]int, len(comp))
		for i, v := range comp {
			local[v] = i
		}
		pairs = append(pairs, [2]int{-1, len(comp)}) // component boundary
		visit(g, comp, local, func(a, b int) { pairs = append(pairs, [2]int{a, b}) })
	}
	return pairs
}

// visitAdjacentRef is visitAdjacent as it stood when it walked every group
// of the graph for every component.
func visitAdjacentRef(g *factor.Graph, comp []int, local map[int]int, f func(a, b int)) {
	inComp := func(v factor.VarID) bool {
		_, ok := local[int(v)]
		return ok
	}
	var vars []factor.VarID
	for gi := 0; gi < g.NumGroups(); gi++ {
		vars = vars[:0]
		g.GroupVars(int32(gi), func(v factor.VarID) {
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

// SamplingInferRef is SamplingInferCtx as it stood before it learned to
// skip a block whose proposal equals the chain's values and to keep each
// block's current score: every touched block is scored on the hybrid and on
// the current world for every replayed world. Kept verbatim as the
// reference TestDecomposedSkipIsBitIdentical compares against.
func SamplingInferRef(ctx context.Context, oldG, newG *factor.Graph, store *gibbs.Store, cs ChangeSet, groups []DecompGroup, scope []factor.VarID, keep int, seed int64) *Result {
	start := time.Now()
	res := &Result{Strategy: StrategySampling, AcceptanceRate: 1, Probed: -1}
	// Groups created by post-materialization updates are not part of
	// Pr(0); a later modification of one has no old-side energy.
	cs.ChangedOld = clampToGraph(oldG, cs.ChangedOld)

	// The chain lives on target: the graph, or the subgraph induced by the
	// scope, whose variable l is vars[l]. A free member of a scope keeps
	// every one of its groups there, so its conditional is the graph's.
	n := newG.NumVars()
	target, vars := newG, scope
	if scope != nil {
		target, _ = newG.Induced(scope)
	} else {
		vars = make([]factor.VarID, n)
		for v := range vars {
			vars[v] = factor.VarID(v)
		}
	}
	counts := make([]float64, len(vars)) // per target variable: observed worlds holding it true
	kept := 0
	blockOf := make([]int32, len(vars)) // by target id
	for l := range blockOf {
		blockOf[l] = -1
	}
	for bi, grp := range groups {
		for _, v := range grp.Inactive {
			blockOf[localOf(scope, v)] = int32(bi)
		}
	}
	// Residual block for unassigned free vars (e.g. new vars). Of a
	// block's variables a stored world proposes the stored ones; the fresh
	// ones — appended since materialization — keep their chain values.
	residual := len(groups)
	nBlocks := residual + 1
	type member struct{ v, l factor.VarID } // one variable: its id in newG, its id in target
	varsByBlock := make([][]member, nBlocks)
	var stored, fresh []member
	for l, v := range vars {
		if newG.IsEvidence(v) {
			continue
		}
		if blockOf[l] == -1 && scope == nil {
			blockOf[l] = int32(residual)
		}
		m := member{v: v, l: factor.VarID(l)}
		if b := blockOf[l]; b >= 0 {
			varsByBlock[b] = append(varsByBlock[b], m)
		}
		if int(v) < store.NumVars() {
			stored = append(stored, m)
		} else {
			fresh = append(fresh, m)
		}
	}

	// CSR-direct: GroupVars reports the head first, then each live
	// grounding's variables in pool order — the same scan order the
	// nested-view walk used, without synthesizing the grounding list.
	blockForGroup := func(g *factor.Graph, gi int32) int {
		block := residual
		found := false
		g.GroupVars(gi, func(v factor.VarID) {
			if found || g.IsEvidence(v) {
				return
			}
			if l := localOf(scope, v); l >= 0 && blockOf[l] >= 0 {
				block = int(blockOf[l])
				found = true
			}
		})
		return block
	}
	changedNewByBlock := make([][]int32, nBlocks)
	for _, gi := range cs.ChangedNew {
		b := blockForGroup(newG, gi)
		changedNewByBlock[b] = append(changedNewByBlock[b], gi)
	}
	changedOldByBlock := make([][]int32, nBlocks)
	for _, gi := range cs.ChangedOld {
		b := blockForGroup(oldG, gi)
		changedOldByBlock[b] = append(changedOldByBlock[b], gi)
	}

	rng := rand.New(rand.NewSource(seed))
	st := factor.NewState(target)
	sampler := gibbs.FromState(st, seed+6)

	// Old-graph groups reference only old variables, so the (wider) new
	// world can be scored against both graphs directly.
	blockScore := func(world []bool, b int) float64 {
		if len(changedNewByBlock[b]) == 0 && len(changedOldByBlock[b]) == 0 {
			return 0
		}
		return newG.EnergyOfGroups(world, changedNewByBlock[b]) -
			oldG.EnergyOfGroups(world, changedOldByBlock[b])
	}

	// Worlds are scored under newG's variable ids (a byte per variable):
	// cur is the chain's world — its own assignment on the whole graph, a
	// mirror of it laid over the evidence on a scope — and hybrid is cur
	// except within the block under test.
	cur := st.Assign
	if scope != nil {
		cur = make([]bool, n)
		for v := range cur {
			cur[v] = newG.IsEvidence(factor.VarID(v)) && newG.EvidenceValue(factor.VarID(v))
		}
	}
	prop := make([]bool, n)
	hybrid := slices.Clone(cur)
	adopt := func(ms []member) {
		for _, m := range ms {
			st.Set(m.l, prop[m.v])
			cur[m.v], hybrid[m.v] = prop[m.v], prop[m.v]
		}
	}
	accepted, proposed := 0, 0
	next, used := store.Len()-store.Remaining(), 0
	for kept < keep {
		if canceled(ctx) {
			break
		}
		if used == store.Remaining() {
			res.FellBack = true
			break
		}
		for _, m := range stored {
			prop[m.v] = store.Bit(next+used, int(m.v))
		}
		used++
		for _, m := range fresh {
			prop[m.v] = cur[m.v]
		}
		for b := 0; b < nBlocks; b++ {
			touched := len(changedNewByBlock[b]) > 0 || len(changedOldByBlock[b]) > 0
			if !touched {
				// Untouched block: adopt the proposal outright.
				adopt(varsByBlock[b])
				continue
			}
			proposed++
			for _, m := range varsByBlock[b] {
				hybrid[m.v] = prop[m.v]
			}
			d := blockScore(hybrid, b) - blockScore(cur, b)
			if d >= 0 || rng.Float64() < math.Exp(d) {
				accepted++
				adopt(varsByBlock[b])
			} else {
				for _, m := range varsByBlock[b] {
					hybrid[m.v] = cur[m.v]
				}
			}
		}
		// Resample the variables the update appended from their
		// conditionals given the adopted world.
		for _, m := range fresh {
			sampler.SampleVar(m.l)
			cur[m.v] = st.Assign[m.l]
			hybrid[m.v] = cur[m.v]
		}
		for l, val := range st.Assign {
			if val {
				counts[l]++
			}
		}
		kept++
	}
	// A whole-graph run spends every world it replayed. A scoped run read
	// len(scope) of each world's n columns and spends that share of them
	// (rounded up), so rule 4 and the KB's low-water refill meter the
	// stored bits a run used, not the number of runs.
	if scope != nil {
		used = (used*len(scope) + n - 1) / n
	}
	store.Skip(used)
	inv := 0.0
	if kept > 0 {
		inv = 1 / float64(kept)
	}
	res.Marginals = make([]float64, len(counts))
	for l, c := range counts {
		res.Marginals[l] = c * inv
	}
	if proposed > 0 {
		res.AcceptanceRate = float64(accepted) / float64(proposed)
	}
	res.SamplesUsed = proposed
	res.Elapsed = time.Since(start)
	return res
}
