package inc

import (
	"sort"

	"deepdive/internal/factor"
)

// DecompGroup is one output group of Algorithm 2 (Appendix B.1): a set of
// inactive variables that are conditionally independent of all other
// inactive variables given the group's active boundary.
type DecompGroup struct {
	Inactive []factor.VarID
	Active   []factor.VarID
}

// Decompose implements Algorithm 2: heuristic decomposition with inactive
// variables.
//
//  1. Remove the active variables; the connected components of the rest
//     are the initial inactive sets V(i)_j.
//  2. The minimal conditioning set V(a)_j of a component is its active
//     boundary — the active variables sharing a factor with it.
//  3. Greedily merge pairs of groups whose active sets satisfy
//     |A_j ∪ A_k| = max(|A_j|, |A_k|) (one contains the other), repeating
//     to a fixpoint, so no active variable is materialized twice without
//     need.
//
// Evidence variables are fixed and participate in neither side.
func Decompose(g *factor.Graph, active []factor.VarID) []DecompGroup {
	n := g.NumVars()
	isActive := make([]bool, n)
	for _, v := range active {
		isActive[v] = true
	}
	skip := func(v factor.VarID) bool {
		return g.IsEvidence(v) || isActive[v]
	}

	// Union-find over inactive free variables.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Group cliques connect inactive vars; collect active boundaries.
	// Groups are walked CSR-direct (factor.Graph.GroupVars) with reused
	// buffers and a generation-stamped dedup array instead of synthesizing
	// the nested grounding view (and a fresh map) per group.
	type edge struct{ comp, act int }
	var boundaryEdges []edge
	var inactive, actives []factor.VarID
	seenAt := make([]int32, n)
	for i := range seenAt {
		seenAt[i] = -1
	}
	for gi := 0; gi < g.NumGroups(); gi++ {
		inactive = inactive[:0]
		actives = actives[:0]
		stamp := int32(gi)
		g.GroupVars(int32(gi), func(v factor.VarID) {
			if seenAt[v] == stamp {
				return
			}
			seenAt[v] = stamp
			if g.IsEvidence(v) {
				return
			}
			if isActive[v] {
				actives = append(actives, v)
			} else {
				inactive = append(inactive, v)
			}
		})
		for i := 1; i < len(inactive); i++ {
			union(int(inactive[0]), int(inactive[i]))
		}
		if len(inactive) > 0 {
			for _, a := range actives {
				boundaryEdges = append(boundaryEdges, edge{comp: int(inactive[0]), act: int(a)})
			}
		}
	}

	// Collect components.
	compOf := make(map[int][]factor.VarID)
	for v := 0; v < n; v++ {
		if skip(factor.VarID(v)) {
			continue
		}
		r := find(v)
		compOf[r] = append(compOf[r], factor.VarID(v))
	}
	boundary := make(map[int]map[factor.VarID]bool)
	for _, e := range boundaryEdges {
		r := find(e.comp)
		if boundary[r] == nil {
			boundary[r] = make(map[factor.VarID]bool)
		}
		boundary[r][factor.VarID(e.act)] = true
	}

	var groups []DecompGroup
	var roots []int
	for r := range compOf {
		roots = append(roots, int(compOf[r][0]))
	}
	sort.Ints(roots)
	done := map[int]bool{}
	for _, first := range roots {
		r := find(first)
		if done[r] {
			continue
		}
		done[r] = true
		grp := DecompGroup{Inactive: compOf[r]}
		for a := range boundary[r] {
			grp.Active = append(grp.Active, a)
		}
		sortVarIDs(grp.Inactive)
		sortVarIDs(grp.Active)
		groups = append(groups, grp)
	}

	// Greedy merge (Algorithm 2 lines 4-6): merge when one active set
	// contains the other.
	merged := true
	for merged {
		merged = false
	outer:
		for j := 0; j < len(groups); j++ {
			for k := j + 1; k < len(groups); k++ {
				u := unionSize(groups[j].Active, groups[k].Active)
				if u == max(len(groups[j].Active), len(groups[k].Active)) {
					groups[j] = mergeGroups(groups[j], groups[k])
					groups = append(groups[:k], groups[k+1:]...)
					merged = true
					break outer
				}
			}
		}
	}
	return groups
}

// ComponentGroups returns the connected components of g's free variables
// as decomposition groups with empty boundaries — the natural inference
// blocks when no interest area is declared (per-sentence clusters in KBC
// graphs). Unlike Decompose it performs no merging, so each component
// keeps its own acceptance test in InferDecomposedCtx.
func ComponentGroups(g *factor.Graph) []DecompGroup {
	comps := components(g)
	out := make([]DecompGroup, 0, len(comps))
	for _, comp := range comps {
		grp := DecompGroup{Inactive: make([]factor.VarID, len(comp))}
		for i, v := range comp {
			grp.Inactive[i] = factor.VarID(v)
		}
		out = append(out, grp)
	}
	return out
}

func unionSize(a, b []factor.VarID) int {
	seen := make(map[factor.VarID]bool, len(a)+len(b))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		seen[v] = true
	}
	return len(seen)
}

func mergeGroups(a, b DecompGroup) DecompGroup {
	out := DecompGroup{}
	out.Inactive = append(append([]factor.VarID{}, a.Inactive...), b.Inactive...)
	seen := map[factor.VarID]bool{}
	for _, v := range append(append([]factor.VarID{}, a.Active...), b.Active...) {
		if !seen[v] {
			seen[v] = true
			out.Active = append(out.Active, v)
		}
	}
	sortVarIDs(out.Inactive)
	sortVarIDs(out.Active)
	return out
}

func sortVarIDs(xs []factor.VarID) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
