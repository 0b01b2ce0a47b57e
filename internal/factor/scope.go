package factor

import "slices"

// Reach is a set of variables grown outward from seed variables over the
// var→var neighbor rows, one connected component at a time, in O(|set|) —
// never from the graph. It comes in the two adjacencies the finish stage
// needs:
//
//   - released: evidence variables connect like any other. These are the
//     components of the evidence-released graph, the ones log Pr[E] =
//     log Z_clamped − log Z_free factorises over, and the set is closed
//     under Neighbors (Induced requires that).
//   - free: only free variables connect. These are the components
//     inference blocks on; an evidence variable joins as the boundary of
//     the components it touches but leads nowhere — unless it is grown
//     itself, which is how a variable that just gained evidence reaches
//     the neighbors whose conditionals that changed.
//
// Tombstoned groundings keep their neighbor links, which can only merge
// components, never split one.
type Reach struct {
	g    *Graph
	free bool
	mark marks
	// Vars are the members in discovery order until Sorted is called.
	Vars []VarID
}

// marks is a Reach's per-variable state — 0 unseen, 1 member, 2 visited
// and dropped, 3 boundary member — in pages allocated on first write, so
// a reach over a few variables of a large graph costs a few pages and a
// pointer per page, not a byte per variable of the graph.
type marks struct{ pages []*[markPage]uint8 }

const (
	markShift = 8
	markPage  = 1 << markShift
)

func (m *marks) get(v VarID) uint8 {
	if p := m.pages[v>>markShift]; p != nil {
		return p[v&(markPage-1)]
	}
	return 0
}

func (m *marks) set(v VarID, x uint8) {
	p := &m.pages[v>>markShift]
	if *p == nil {
		*p = new([markPage]uint8)
	}
	(*p)[v&(markPage-1)] = x
}

// NewReach returns the empty set over g, over the free-variable adjacency
// or the evidence-released one.
func (g *Graph) NewReach(free bool) *Reach {
	pages := make([]*[markPage]uint8, (g.numVars+markPage-1)>>markShift)
	return &Reach{g: g, free: free, mark: marks{pages}}
}

// Has reports whether v is a member.
func (r *Reach) Has(v VarID) bool { return r.mark.get(v)&1 == 1 }

// Grow adds the connected component of v unless it was visited before.
// With evidenceOnly, a component holding no evidence variable is marked
// visited but not added.
func (r *Reach) Grow(v VarID, evidenceOnly bool) {
	start := len(r.Vars)
	switch r.mark.get(v) {
	case 0:
		r.Vars = append(r.Vars, v)
	case 3: // a boundary member grown in its own right: expand from it
	default:
		return
	}
	r.mark.set(v, 1)
	evidence := r.g.evidence[v]
	expand := func(u VarID) {
		r.g.Neighbors(u, func(w VarID) {
			if r.mark.get(w) != 0 {
				return
			}
			r.mark.set(w, 1)
			if r.g.evidence[w] {
				evidence = true
				if r.free {
					r.mark.set(w, 3)
				}
			}
			r.Vars = append(r.Vars, w)
		})
	}
	expand(v)
	for i := start; i < len(r.Vars); i++ {
		if u := r.Vars[i]; u != v && r.mark.get(u) == 1 {
			expand(u)
		}
	}
	if evidenceOnly && !evidence {
		for _, u := range r.Vars[start:] {
			r.mark.set(u, 2)
		}
		r.Vars = r.Vars[:start]
	}
}

// Sorted orders Vars ascending — the canonical order everything derived
// from a scope is built in — and returns them.
func (r *Reach) Sorted() []VarID {
	slices.Sort(r.Vars)
	return r.Vars
}

// Induced builds the subgraph induced by vars, which must be ascending:
// local variable i is vars[i] with its evidence state, the weight table is
// copied whole so weight ids (and Frozen masks, warm-start vectors) carry
// over unchanged, and the groups are every group whose variables are all
// members, in ascending parent index — returned as the second result. On a
// set closed under Neighbors (a released Reach) those are the groups
// touching a member, and the energy of a world restricted to vars equals
// the parent's EnergyOfGroups over them, so chains and trainers run on the
// subgraph exactly as they would on the parent's components. On a free
// Reach the groups left out touch only boundary evidence: every free
// member keeps all of its groups, hence its conditional.
func (g *Graph) Induced(vars []VarID) (*Graph, []int32) {
	b := &Builder{weights: slices.Clone(g.weights)}
	var adjacent []int32
	for _, v := range vars {
		b.evidence = append(b.evidence, g.evidence[v])
		b.evValue = append(b.evValue, g.evValue[v])
		adjacent = append(adjacent, g.adjGroups[g.adjOff[v]:g.adjOff[v+1]]...)
		adjacent = append(adjacent, g.ExtraAdjacent(v)...)
	}
	// local maps a parent variable to its index in vars, NoVar when it is
	// not a member.
	local := func(v VarID) VarID {
		if i, ok := slices.BinarySearch(vars, v); ok {
			return VarID(i)
		}
		return NoVar
	}
	adjacent = sortDedupInt32(adjacent)
	groups := adjacent[:0] // filtered in place
	for _, gi := range adjacent {
		if b.CopyGroup(g, gi, WeightID(g.groupWeight[gi]), local) >= 0 {
			groups = append(groups, gi)
		}
	}
	return b.MustBuild(), groups
}
