package factor

import (
	"fmt"
	"slices"
)

// Patch extends a Graph in place at delta cost: new variables, weights,
// groups, and groundings are appended to the flat pools, removed
// groundings are tombstoned, and the per-variable adjacency CSR rows are
// spliced through small overflow rows — the untouched pools are never
// rewritten. This is the Δ-cost update path the paper's
// incremental-grounding contribution calls for: a patch costs O(|Δ|)
// writes, where a full rebuild is O(Σ groundings·literals), so the patch
// path wins by an order of magnitude already at percent-scale deltas and
// the gap widens with graph size (the benchmark harness reports the two as
// factor.graph_ms and factor.rebuild_ms).
//
// Membership. A patch keeps no hash set of the pairs it links. Each group
// it grounds into carries its distinct-variable set (groupVars): that set
// is exactly the variables whose adjacency row lists the group, and its
// variables are pairwise blanket neighbors, so a grounding variable already
// in it needs no link at all, and one that is not gets the group appended
// to its adjacency row and a blanket check against each member — a binary
// search of the frozen neighbor row, then a scan of the overflow row.
//
// Ownership. A patch writes the graph it was started on, and Apply returns
// that same graph: nothing of the pre-patch graph survives it. A caller
// that must keep evaluating the old distribution — the
// incremental-inference engine scores proposals against both Pr(0) and
// Pr(∆) — takes a Clone first. Patching is not concurrency-safe with
// in-flight evaluation of the graph: apply patches between sweeps.
//
// Repeated patching fragments the layout (tombstones in the frozen rows,
// groundings reachable only through overflow). Monitor
// Graph.Fragmentation and compact by rebuilding through NewBuilderFrom
// when it crosses a threshold.
type Patch struct {
	g       *Graph
	applied bool

	// Per-group distinct-variable sets, which also answer adjacency
	// membership (see groupVars): newGroupVars[gi-baseGroups] for a group
	// this patch added, seeded with its head; oldGroupVars for a
	// pre-existing group, seeded by one scan on its first AddGrounding and
	// allocated then. Both are extended as groundings land, so streamed
	// additions stay O(Δ) instead of rescanning the group per call.
	baseGroups   int32
	newGroupVars []groupVarSet
	oldGroupVars map[int32]*groupVarSet
}

// groupVarSetSmall is the size up to which a groupVarSet answers
// membership by scanning its list; past it the set keeps an index.
const groupVarSetSmall = 32

// groupVarSet tracks the distinct variables of one group during a patch:
// its head, then the others in first-seen order. Small sets — almost every
// group — are the list alone (a group that is only its head allocates
// nothing); a set that outgrows groupVarSetSmall indexes it, so a large
// group stays O(1) per check.
type groupVarSet struct {
	head  VarID
	rest  []VarID
	index map[VarID]struct{}
}

func (s *groupVarSet) has(v VarID) bool {
	if v == s.head {
		return true
	}
	if s.index != nil {
		_, ok := s.index[v]
		return ok
	}
	for _, u := range s.rest {
		if u == v {
			return true
		}
	}
	return false
}

// add appends v, which must not be in the set yet.
func (s *groupVarSet) add(v VarID) {
	s.rest = append(s.rest, v)
	switch {
	case s.index != nil:
		s.index[v] = struct{}{}
	case len(s.rest) > groupVarSetSmall:
		s.index = make(map[VarID]struct{}, 2*len(s.rest))
		for _, u := range s.rest {
			s.index[u] = struct{}{}
		}
	}
}

// addNew adds v unless the set holds it.
func (s *groupVarSet) addNew(v VarID) {
	if !s.has(v) {
		s.add(v)
	}
}

// NewPatch starts a patch over g, which it writes in place and advances
// to the next epoch.
func NewPatch(g *Graph) *Patch {
	g.epoch++
	return &Patch{g: g, baseGroups: int32(len(g.groupHead))}
}

// checkOpen panics after Apply: a patch is single-use.
func (p *Patch) checkOpen() {
	if p.applied {
		panic("factor: Patch used after Apply")
	}
}

// ownStruct allocates the overflow tables the graph does not have yet.
// Called before any structural mutation.
func (p *Patch) ownStruct() {
	g := p.g
	if g.gndExtra == nil {
		g.gndExtra = make([][]int32, len(g.groupHead))
	}
	if g.adjExtra == nil {
		g.adjExtra = make([][]int32, g.numVars)
	}
	if g.bodyExtra == nil {
		g.bodyExtra = make([][]bodyOcc, g.numVars)
	}
	if g.nbrExtra == nil {
		g.nbrExtra = make([][]int32, g.numVars)
	}
}

// AddVar registers a new free variable and returns its id.
func (p *Patch) AddVar() VarID {
	p.checkOpen()
	p.ownStruct()
	g := p.g
	g.evidence = append(g.evidence, false)
	g.evValue = append(g.evValue, false)
	g.bodyOff = append(g.bodyOff, g.bodyOff[len(g.bodyOff)-1])
	g.adjOff = append(g.adjOff, g.adjOff[len(g.adjOff)-1])
	g.nbrOff = append(g.nbrOff, g.nbrOff[len(g.nbrOff)-1])
	g.bodyExtra = append(g.bodyExtra, nil)
	g.adjExtra = append(g.adjExtra, nil)
	g.nbrExtra = append(g.nbrExtra, nil)
	g.numVars++
	return VarID(g.numVars - 1)
}

// SetEvidence fixes (or releases) the value of a variable.
func (p *Patch) SetEvidence(v VarID, ev, val bool) {
	p.checkOpen()
	g := p.g
	if int(v) < 0 || int(v) >= g.numVars {
		panic(fmt.Sprintf("factor: Patch.SetEvidence var %d out of range [0,%d)", v, g.numVars))
	}
	g.SetEvidence(v, ev, val)
}

// AddWeight registers a weight with an initial value and returns its id.
func (p *Patch) AddWeight(init float64) WeightID {
	p.checkOpen()
	p.g.weights = append(p.g.weights, init)
	return WeightID(len(p.g.weights) - 1)
}

// AddGroup appends an empty rule group; populate it with AddGrounding.
// Returns the group index (group indexes are append-only).
func (p *Patch) AddGroup(head VarID, w WeightID, sem Semantics) int {
	p.checkOpen()
	p.ownStruct()
	g := p.g
	if head < 0 || int(head) >= g.numVars {
		panic(fmt.Sprintf("factor: Patch.AddGroup head %d out of range [0,%d)", head, g.numVars))
	}
	if w < 0 || int(w) >= len(g.weights) {
		panic(fmt.Sprintf("factor: Patch.AddGroup weight %d out of range [0,%d)", w, len(g.weights)))
	}
	g.groupHead = append(g.groupHead, int32(head))
	g.groupWeight = append(g.groupWeight, int32(w))
	g.groupSem = append(g.groupSem, sem)
	// New groups own no frozen pool range; their groundings live entirely
	// in the overflow row. The repeated offset keeps len(gndOff) ==
	// NumGroups+1 with an empty [off, off) main range.
	g.gndOff = append(g.gndOff, g.gndOff[len(g.gndOff)-1])
	g.gndExtra = append(g.gndExtra, nil)
	g.semGrow(sem, 0)
	gi := len(g.groupHead) - 1
	// A brand-new group is in no adjacency row yet: link its head, the
	// first member of its variable set, without a lookup.
	g.adjExtra[head] = append(g.adjExtra[head], int32(gi))
	p.newGroupVars = append(p.newGroupVars, groupVarSet{head: head})
	return gi
}

// hasNbr reports whether a and b are already Markov-blanket neighbors:
// in a's frozen row (binary search, it is ascending) or its overflow row.
// Rows are kept symmetric, so one direction suffices.
func (p *Patch) hasNbr(a, b VarID) bool {
	g := p.g
	row := g.nbrs[g.nbrOff[a]:g.nbrOff[a+1]]
	if _, found := slices.BinarySearch(row, int32(b)); found {
		return true
	}
	return slices.Contains(g.nbrExtra[a], int32(b))
}

// addNbr links a and b as blanket neighbors (both directions) if absent.
func (p *Patch) addNbr(a, b VarID) {
	if a == b || p.hasNbr(a, b) {
		return
	}
	nx := p.g.nbrExtra
	nx[a] = append(nx[a], int32(b))
	nx[b] = append(nx[b], int32(a))
}

// groupVars returns the tracked distinct-variable set of group gi: its
// head plus every grounding's literals, frozen and overflow, tombstones
// included — stale blanket links only cost spurious invalidations. The set
// is exactly the variables whose adjacency row lists gi (Build and every
// patch link a group into the row of each of its variables, and a
// tombstone unlinks nothing), so membership in it answers adjacency too.
// The first call for a pre-existing group scans it once; later calls
// return the tracked set, which AddGrounding extends as groundings land.
func (p *Patch) groupVars(gi int32) *groupVarSet {
	if gi >= p.baseGroups {
		return &p.newGroupVars[gi-p.baseGroups]
	}
	if s := p.oldGroupVars[gi]; s != nil {
		return s
	}
	g := p.g
	s := &groupVarSet{head: VarID(g.groupHead[gi])}
	scan := func(k int32) {
		for li := g.litOff[k]; li < g.litOff[k+1]; li++ {
			s.addNew(VarID(g.lits[li] >> 1))
		}
	}
	for k := g.gndOff[gi]; k < g.gndOff[gi+1]; k++ {
		scan(k)
	}
	for _, k := range g.gndExtra[gi] {
		scan(k)
	}
	if p.oldGroupVars == nil {
		p.oldGroupVars = make(map[int32]*groupVarSet)
	}
	p.oldGroupVars[gi] = s
	return s
}

// AddGrounding appends one grounding (conjunction of literals) to group
// gi — either a group added by this patch or a pre-existing one — and
// returns its global grounding id, which RemoveGrounding accepts later.
func (p *Patch) AddGrounding(gi int, lits []Literal) int32 {
	p.checkOpen()
	p.ownStruct()
	g := p.g
	if gi < 0 || gi >= len(g.groupHead) {
		panic(fmt.Sprintf("factor: Patch.AddGrounding group %d out of range [0,%d)", gi, len(g.groupHead)))
	}
	// The group's tracked variable set: the new grounding's variables
	// couple to every variable already in the group through its shared
	// support count, so the blanket rows must link them for the
	// conditional caches to invalidate correctly.
	gv := p.groupVars(int32(gi))

	k := int32(g.nGnd)
	for _, lit := range lits {
		if lit.Var < 0 || int(lit.Var) >= g.numVars {
			panic(fmt.Sprintf("factor: Patch.AddGrounding var %d out of range [0,%d)", lit.Var, g.numVars))
		}
		enc := int32(lit.Var) << 1
		if lit.Neg {
			enc |= 1
		}
		g.lits = append(g.lits, enc)
	}
	g.litOff = append(g.litOff, int32(len(g.lits)))
	if g.deadAt != nil {
		g.deadAt = append(g.deadAt, 0)
	}

	g.semGrow(g.groupSem[gi], g.gndCount(int32(gi))+1)

	g.nGnd++
	g.nExtra++
	g.gndExtra[gi] = append(g.gndExtra[gi], k)

	// Occurrence records: one per distinct variable of the grounding,
	// merging repeated (possibly negated) occurrences, like Build.
	for i, lit := range lits {
		merged := false
		for j := 0; j < i; j++ {
			if lits[j].Var == lit.Var {
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		occ := bodyOcc{group: int32(gi), gnd: k}
		for _, l2 := range lits[i:] {
			if l2.Var != lit.Var {
				continue
			}
			if l2.Neg {
				occ.n[1]++
			} else {
				occ.n[0]++
			}
		}
		g.bodyExtra[lit.Var] = append(g.bodyExtra[lit.Var], occ)
		if gv.has(lit.Var) {
			// Already in the group: already in its adjacency row, and
			// already linked to every other variable of the group.
			continue
		}
		g.adjExtra[lit.Var] = append(g.adjExtra[lit.Var], int32(gi))
		// Blanket links: to every variable already tracked for the group —
		// including this grounding's earlier variables, which were added to
		// the set as they were processed (addNbr dedupes both directions).
		p.addNbr(lit.Var, gv.head)
		for _, u := range gv.rest {
			p.addNbr(lit.Var, u)
		}
		gv.add(lit.Var)
	}
	return k
}

// RemoveGrounding tombstones grounding k (as returned by AddGrounding, or
// a frozen pool index). The grounding stays in the pools — its occurrence
// records become dead weight until compaction — but no evaluator counts it
// any more. Tombstoning is permanent: to re-add an identical grounding
// later, append a fresh one.
func (p *Patch) RemoveGrounding(k int32) {
	p.checkOpen()
	g := p.g
	if k < 0 || int(k) >= g.nGnd {
		panic(fmt.Sprintf("factor: Patch.RemoveGrounding id %d out of range [0,%d)", k, g.nGnd))
	}
	if g.deadAt == nil {
		g.deadAt = make([]int32, g.nGnd)
	}
	if !g.gndLive(k) {
		panic(fmt.Sprintf("factor: Patch.RemoveGrounding id %d already tombstoned", k))
	}
	g.deadAt[k] = g.epoch
	g.nDead++
}

// Apply finalizes the patch and returns the patched graph — the one
// NewPatch was given. The patch must not be used afterwards.
func (p *Patch) Apply() *Graph {
	p.checkOpen()
	p.applied = true
	return p.g
}
