package factor

import (
	"fmt"
	"slices"
)

// Patch derives a new Graph from an existing one at delta cost: new
// variables, weights, groups, and groundings are appended to the flat
// pools, removed groundings are tombstoned, and the per-variable
// adjacency CSR rows are spliced through small overflow slices — the
// untouched pools are never rewritten. This is the Δ-cost update path the
// paper's incremental-grounding contribution calls for.
//
// Precisely, a patch costs O(|Δ|) pool writes, plus what it shares the
// side tables for: the per-variable and per-group overflow rows live in
// copy-on-write paged tables (see paged), so a patch copies one pointer
// per 32 rows of each table and clones only the pages holding a row it
// rewrites — rows it appends land in the shared tail page — and an older
// graph of the lineage, the engine's Pr(0) graph hundreds of patches back
// included, keeps every row it had. What is still copied flat is
// pointer-free and small: the weight values and the evidence flags
// (8·W + 2·V bytes), because callers mutate both on a live graph. A full
// rebuild is O(Σ groundings·literals), so the patch path wins by an order
// of magnitude already at percent-scale deltas and the gap widens with
// graph size (the benchmark harness reports the two as factor.graph_ms and
// factor.rebuild_ms).
//
// Membership. A patch keeps no hash set of the pairs it links. Each group
// it grounds into carries its distinct-variable set (groupVars): that set
// is exactly the variables whose adjacency row lists the group, and its
// variables are pairwise blanket neighbors, so a grounding variable already
// in it needs no link at all, and one that is not gets the group appended
// to its adjacency row and a blanket check against each member — a binary
// search of the frozen neighbor row, then a scan of the overflow row.
//
// Lineage sharing. Apply returns a new *Graph that shares the pool
// backing arrays with the base graph. Appends land past the base graph's
// slice lengths, and tombstones are stamped with the new graph's epoch,
// so the base graph keeps evaluating the old distribution unchanged —
// exactly what the incremental-inference engine needs, since it scores
// proposals against both Pr(0) and Pr(∆). Two rules follow:
//
//   - The lineage must be linear: once a Patch has been applied to a
//     graph, derive further patches from the result, not from the base
//     again (a second patch from the same base would append into pool
//     capacity the first patch's result already owns).
//   - Patching is not concurrency-safe with in-flight evaluation on any
//     graph of the lineage: apply patches between sweeps.
//
// Repeated patching fragments the layout (tombstones in the frozen rows,
// groundings reachable only through overflow). Monitor
// Graph.Fragmentation and compact by rebuilding through NewBuilderFrom
// when it crosses a threshold.
type Patch struct {
	base *Graph
	g    *Graph

	structOwned bool // overflow side tables copied for this patch
	applied     bool

	// Per-group distinct-variable sets, which also answer adjacency
	// membership (see groupVars): newGroupVars[gi-base.NumGroups()] for a
	// group this patch added, seeded with its head; oldGroupVars for a
	// pre-existing group, seeded by one scan on its first AddGrounding and
	// allocated then. Both are extended as groundings land, so streamed
	// additions stay O(Δ) instead of rescanning the group per call.
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

// NewPatch starts a patch over g. The working copy's weight table and
// evidence arrays start out as g's (see lineage): callers mutate both on a
// live graph (learning writes weights, supervision flips evidence), and
// the first such write on either graph copies the table, so the base
// graph keeps its values without a patch paying 8·W + 2·V bytes up front;
// the heavyweight pools are shared per the lineage rules above.
func NewPatch(g *Graph) *Patch {
	ng := *g
	ng.epoch = g.epoch + 1
	ng.wShare = g.wShare.fork(len(g.weights))
	ng.evShare, ng.valShare = g.evShare.fork(g.numVars), g.valShare.fork(g.numVars)
	return &Patch{base: g, g: &ng}
}

// checkOpen panics after Apply: a patch is single-use.
func (p *Patch) checkOpen() {
	if p.applied {
		panic("factor: Patch used after Apply")
	}
}

// ownStruct forks the side tables (see paged) so this patch can write
// them: one pointer per page is copied, the pages stay shared until a
// write lands on one. Called before any structural mutation.
func (p *Patch) ownStruct() {
	if p.structOwned {
		return
	}
	p.structOwned = true
	g, b := p.g, p.base
	nG, nV := len(g.groupHead), g.numVars
	g.gndExtra = b.gndExtra.fork(nG)
	g.adjExtra = b.adjExtra.fork(nV)
	g.bodyExtra = b.bodyExtra.fork(nV)
	g.nbrExtra = b.nbrExtra.fork(nV)
}

// AddVar registers a new free variable and returns its id.
func (p *Patch) AddVar() VarID {
	p.checkOpen()
	p.ownStruct()
	g := p.g
	g.evidence = grow(g.evidence, &g.evShare, false)
	g.evValue = grow(g.evValue, &g.valShare, false)
	g.bodyOff = append(g.bodyOff, g.bodyOff[len(g.bodyOff)-1])
	g.adjOff = append(g.adjOff, g.adjOff[len(g.adjOff)-1])
	g.nbrOff = append(g.nbrOff, g.nbrOff[len(g.nbrOff)-1])
	g.bodyExtra.push(nil)
	g.adjExtra.push(nil)
	g.nbrExtra.push(nil)
	g.numVars++
	return VarID(g.numVars - 1)
}

// SetEvidence fixes (or releases) the value of a variable in the patched
// graph; the base graph keeps its evidence state.
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
	p.g.weights = grow(p.g.weights, &p.g.wShare, init)
	return WeightID(len(p.g.weights) - 1)
}

// AddGroup appends an empty rule group; populate it with AddGrounding.
// Returns the group index (indexes are append-only across the lineage).
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
	g.gndExtra.push(nil)
	g.semGrow(sem, 0)
	gi := len(g.groupHead) - 1
	// A brand-new group is in no adjacency row yet: link its head, the
	// first member of its variable set, without a lookup.
	g.adjExtra.set(&p.base.adjExtra, int32(head), append(g.adjExtra.at(int32(head)), int32(gi)))
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
	return slices.Contains(g.nbrExtra.at(int32(a)), int32(b))
}

// addNbr links a and b as blanket neighbors (both directions) if absent.
func (p *Patch) addNbr(a, b VarID) {
	if a == b || p.hasNbr(a, b) {
		return
	}
	nx, bx := &p.g.nbrExtra, &p.base.nbrExtra
	nx.set(bx, int32(a), append(nx.at(int32(a)), int32(b)))
	nx.set(bx, int32(b), append(nx.at(int32(b)), int32(a)))
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
	if nb := int32(p.base.NumGroups()); gi >= nb {
		return &p.newGroupVars[gi-nb]
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
	for _, k := range g.gndExtra.at(gi) {
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

	extra := g.gndExtra.at(int32(gi))
	g.semGrow(g.groupSem[gi], g.gndCount(int32(gi))+1)

	g.nGnd++
	g.nExtra++
	g.gndExtra.set(&p.base.gndExtra, int32(gi), append(extra, k))

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
		g.bodyExtra.set(&p.base.bodyExtra, int32(lit.Var), append(g.bodyExtra.at(int32(lit.Var)), occ))
		if gv.has(lit.Var) {
			// Already in the group: already in its adjacency row, and
			// already linked to every other variable of the group.
			continue
		}
		g.adjExtra.set(&p.base.adjExtra, int32(lit.Var), append(g.adjExtra.at(int32(lit.Var)), int32(gi)))
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
// records become dead weight until compaction — but no evaluator at this
// patch's epoch or later counts it. Tombstoning is permanent for the
// lineage: to re-add an identical grounding later, append a fresh one.
func (p *Patch) RemoveGrounding(k int32) {
	p.checkOpen()
	g := p.g
	if k < 0 || int(k) >= g.nGnd {
		panic(fmt.Sprintf("factor: Patch.RemoveGrounding id %d out of range [0,%d)", k, g.nGnd))
	}
	if g.deadAt == nil {
		g.deadAt = make([]int32, g.nGnd)
	} else if len(g.deadAt) < g.nGnd {
		grown := make([]int32, g.nGnd)
		copy(grown, g.deadAt)
		g.deadAt = grown
	}
	if !g.gndLive(k) {
		panic(fmt.Sprintf("factor: Patch.RemoveGrounding id %d already tombstoned", k))
	}
	g.deadAt[k] = g.epoch
	g.nDead++
}

// Apply finalizes the patch and returns the new graph. The patch must not
// be used afterwards; derive further patches from the returned graph.
func (p *Patch) Apply() *Graph {
	p.checkOpen()
	p.applied = true
	return p.g
}
