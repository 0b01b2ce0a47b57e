package factor

import (
	"fmt"
	"math"
)

// CSR exposes the flat compressed-sparse-row arrays of a Graph — the
// DimmWitted-style layout Build emits. Samplers that want contiguous
// index arithmetic (e.g. the parallel Gibbs workers) read these arrays
// directly instead of walking the nested Group view.
//
// On a patched graph the frozen arrays alone are not the whole story: the
// patched-in groundings and adjacency entries live in overflow rows read
// through Graph.ExtraNeighbors/ExtraAdjacent, and tombstoned groundings
// stay in the pools. Rebuild through NewBuilderFrom to recover a purely
// contiguous view.
//
// All slices are shared with the Graph and must be treated as read-only.
type CSR struct {
	// Per-group attributes.
	GroupHead   []int32
	GroupWeight []int32
	GroupSem    []Semantics

	// Group g's frozen groundings are the global grounding indices
	// [GndOff[g], GndOff[g+1]); grounding k's literals are
	// Lits[LitOff[k]:LitOff[k+1]], each var<<1 | negated (LitVar decodes
	// the variable).
	GndOff []int32
	LitOff []int32
	Lits   []int32

	// Per-variable adjacency: variable v touches groups
	// AdjGroups[AdjOff[v]:AdjOff[v+1]] (deduplicated, ascending).
	AdjOff    []int32
	AdjGroups []int32

	// Markov-blanket neighbor CSR: variable v shares at least one group
	// with exactly Nbrs[NbrOff[v]:NbrOff[v+1]] (deduplicated, ascending,
	// self excluded). Conditional caches invalidate along these rows.
	NbrOff []int32
	Nbrs   []int32
}

// LitVar decodes the variable of a pooled literal.
func LitVar(l int32) int32 { return l >> 1 }

// CSR returns the flat layout of the graph. The arrays are shared; treat
// them as read-only.
func (g *Graph) CSR() CSR {
	return CSR{
		GroupHead:   g.groupHead,
		GroupWeight: g.groupWeight,
		GroupSem:    g.groupSem,
		GndOff:      g.gndOff,
		LitOff:      g.litOff,
		Lits:        g.lits,
		AdjOff:      g.adjOff,
		AdjGroups:   g.adjGroups,
		NbrOff:      g.nbrOff,
		Nbrs:        g.nbrs,
	}
}

// EnergyDeltaOf computes E(v=true) − E(v=false) conditioned on the rest of
// assign by direct evaluation of v's adjacent groups over the flat layout —
// no support counters required, so any goroutine holding a consistent view
// of assign can call it.
func (g *Graph) EnergyDeltaOf(assign []bool, v VarID) float64 {
	return g.EnergyDeltaShard(assign, assign, 0, int32(g.numVars), v)
}

// shardGnd evaluates one grounding of a group adjacent to vi under the
// sharded read rule and reports its contribution to the group's
// satisfied-grounding counts with vi=true (n1) and vi=false (n0).
func (g *Graph) shardGnd(k, vi int32, cur, snap []bool, lo, hi int32) (n1, n0 int) {
	sat := true
	hasPos, hasNeg := false, false
	for li := g.litOff[k]; li < g.litOff[k+1]; li++ {
		l := g.lits[li]
		u := l >> 1
		neg := l&1 == 1
		if u == vi {
			if neg {
				hasNeg = true
			} else {
				hasPos = true
			}
			continue
		}
		var uval bool
		if u >= lo && u <= hi {
			uval = cur[u]
		} else {
			uval = snap[u]
		}
		if uval == neg {
			sat = false
			break
		}
	}
	if !sat {
		return 0, 0
	}
	if !hasNeg {
		n1 = 1
	}
	if !hasPos {
		n0 = 1
	}
	return n1, n0
}

// shardSupport counts group gi's satisfied live groundings with vi=true
// (n1) and vi=false (n0), frozen range plus overflow, under the sharded
// read rule.
func (g *Graph) shardSupport(gi, vi int32, cur, snap []bool, lo, hi int32) (n1, n0 int) {
	for k := g.gndOff[gi]; k < g.gndOff[gi+1]; k++ {
		if !g.gndLive(k) {
			continue
		}
		i1, i0 := g.shardGnd(k, vi, cur, snap, lo, hi)
		n1 += i1
		n0 += i0
	}
	for _, k := range g.extraGnds(gi) {
		if !g.gndLive(k) {
			continue
		}
		i1, i0 := g.shardGnd(k, vi, cur, snap, lo, hi)
		n1 += i1
		n0 += i0
	}
	return n1, n0
}

// EnergyDeltaShard is EnergyDeltaOf under a sharded read rule: variables
// in [lo, hi] are read from cur, all others from snap. The parallel
// sampler's workers pass their ownership range so they observe their own
// in-sweep writes (Gauss-Seidel within the shard) and sweep-start
// snapshots of every other shard. There is exactly one evaluator: the
// sequential direct evaluation is the lo..hi-covers-everything case.
func (g *Graph) EnergyDeltaShard(cur, snap []bool, lo, hi int32, v VarID) float64 {
	vi := int32(v)
	var delta float64
	adj := g.adjGroups[g.adjOff[v]:g.adjOff[v+1]]
	xadj := g.ExtraAdjacent(v)
	weights, groupWeight, groupHead := g.weights, g.groupWeight, g.groupHead
	groupSem, semTabs := g.groupSem, &g.semTabs
	for ai := 0; ai < len(adj)+len(xadj); ai++ {
		var gi int32
		if ai < len(adj) {
			gi = adj[ai]
		} else {
			gi = xadj[ai-len(adj)]
		}
		// n1/n0: satisfied groundings of the group with v=true / v=false.
		n1, n0 := g.shardSupport(gi, vi, cur, snap, lo, hi)
		w := weights[groupWeight[gi]]
		tab := semTabs[groupSem[gi]]
		if groupHead[gi] == vi {
			// E(v=1) = +w·g(n1); E(v=0) = −w·g(n0) ⇒ diff = w·(g(n1)+g(n0)).
			delta += w * (tab[n1] + tab[n0])
		} else {
			h := groupHead[gi]
			var hv bool
			if h >= lo && h <= hi {
				hv = cur[h]
			} else {
				hv = snap[h]
			}
			if hv {
				delta += w * (tab[n1] - tab[n0])
			} else {
				delta -= w * (tab[n1] - tab[n0])
			}
		}
	}
	return delta
}

// CondProbOf returns P(v = true | rest of assign) by direct evaluation
// (see EnergyDeltaOf).
func (g *Graph) CondProbOf(assign []bool, v VarID) float64 {
	return 1 / (1 + math.Exp(-g.EnergyDeltaOf(assign, v)))
}

// WeightStatsOf accumulates, for each weight id, the statistic
// Σ_groups sign(head)·g(n) of the given world into out — the same
// sufficient statistic as State.WeightStats, but computed in one flat pass
// over the literal pool from a bare assignment (no support counters).
// len(out) must be NumWeights.
func (g *Graph) WeightStatsOf(assign []bool, out []float64) {
	if len(out) != len(g.weights) {
		panic(fmt.Sprintf("factor: WeightStatsOf got %d slots, want %d", len(out), len(g.weights)))
	}
	for gi := range g.groupHead {
		out[g.groupWeight[gi]] += g.GroupStat(int32(gi), assign)
	}
}
