package inc

import "deepdive/internal/factor"

// DecompGroup is one inference block: a set of free variables
// conditionally independent of every other block given the evidence.
type DecompGroup struct {
	Inactive []factor.VarID
}

// ComponentGroups returns the connected components of g's free variables
// as inference blocks — Algorithm 2 (Appendix B.1) with the empty active
// set, the natural blocks when no interest area is declared (per-sentence
// clusters in KBC graphs) — so each component keeps its own acceptance
// test in SamplingInferCtx. With a non-nil scope (Engine.Scope, sorted)
// only the scope's components are computed, in O(|scope|) graph work.
func ComponentGroups(g *factor.Graph, scope []factor.VarID) []DecompGroup {
	comps := components(g, scope)
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
