package factor

import (
	"fmt"
	"slices"
)

// VarID identifies a Boolean random variable in a Graph.
type VarID int32

// NoVar marks an absent variable reference.
const NoVar VarID = -1

// WeightID indexes the tied-weight table of a Graph. Weight tying
// (Section 2.3 of the paper) means many groups may share one WeightID.
type WeightID int32

// Literal is one body conjunct: a variable reference, possibly negated.
type Literal struct {
	Var VarID
	Neg bool
}

// Grounding is one grounding of a rule body: a conjunction of literals.
// It is satisfied in a world when every literal holds.
type Grounding struct {
	Lits []Literal
}

// Group is one grounded Boolean rule γ = (q, w): the head variable, the
// tied weight, the counting semantics, and all body groundings. The energy
// contribution of the group is w · sign(head) · g(#satisfied groundings).
//
// Group is the nested view of the graph. The Graph stores only the flat
// CSR encoding; Graph.Group synthesizes this view on demand from the flat
// pools, so it always reflects the live (non-tombstoned) groundings.
type Group struct {
	Head       VarID
	Weight     WeightID
	Sem        Semantics
	Groundings []Grounding
}

// bodyOcc is one (variable, grounding) co-occurrence record built by
// Build. gnd is the global grounding index (into the flat grounding
// space), so counter updates index State.unsat directly. The occurrence
// counts are stored indexed by the variable's value — n[0] counts
// positive literals (unsatisfied when v=false), n[1] negated literals
// (unsatisfied when v=true) — so the sweep kernels read the contribution
// under either candidate value as n[b2i(val)] with no branch.
type bodyOcc struct {
	group int32
	gnd   int32 // global grounding index
	n     [2]uint16
}

// b2i converts a bool to its array index (compiles to a register move —
// Go bools are 0/1 bytes).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Graph is a grounded factor graph: variables, evidence assignments, tied
// weights, and rule groups. Build one through a Builder, and extend it in
// O(|Δ|) through a Patch.
//
// Internally Build freezes the structure into a flat CSR
// (compressed-sparse-row) layout — contiguous group attribute arrays, a
// grounding-offset array, a literal pool, and per-variable adjacency
// indexes — so sampling walks contiguous int32 arrays instead of chasing
// nested slices (the DimmWitted layout).
//
// A Patch extends the frozen layout in place without rewriting it: new
// groundings are appended to the pools and linked to their group (and to
// the adjacency rows of the variables they touch) through small per-row
// overflow slices, and removed groundings are tombstoned in an
// epoch-stamped deadAt array. A graph has one owner, and a patch moves it
// on: a caller that must keep reading the pre-patch distribution — the
// incremental-inference engine's Pr(0) — keeps a Clone.
type Graph struct {
	numVars  int
	evidence []bool // per variable: value is fixed
	evValue  []bool // fixed value (meaningful when evidence)
	weights  []float64

	// Flat per-group attribute arrays.
	groupHead   []int32
	groupWeight []int32
	groupSem    []Semantics

	// Grounding and literal pools. Group g's frozen groundings are the
	// global grounding indices [gndOff[g], gndOff[g+1]); grounding k's
	// literals are lits[litOff[k]:litOff[k+1]], encoded var<<1|neg.
	// Patched-in groundings live at pool positions past the frozen region
	// and are reached through gndExtra instead of gndOff.
	gndOff []int32
	litOff []int32
	lits   []int32

	// Per-variable adjacency, CSR: v's body occurrence records (ascending
	// group order, contiguous per group) and the deduplicated union of
	// head and body groups (ascending). Patched-in entries live in the
	// bodyExtra/adjExtra overflow rows.
	bodyOff   []int32
	bodyRecs  []bodyOcc
	adjOff    []int32
	adjGroups []int32

	// Table-driven semantics: semTabs[s][n] is g(n) of semantics s for every
	// n up to the largest grounding count of any group using s, so the hot
	// evaluators replace the Semantics.G switch (and Ratio's log1p) with one
	// indexed load. A patch only ever appends to them.
	semTabs [numSemantics][]float64

	// Markov-blanket adjacency, CSR: variable v's neighbors — every other
	// variable sharing at least one group with v — are
	// nbrs[nbrOff[v]:nbrOff[v+1]], deduplicated, ascending, self excluded.
	// A flip of v can change the cached conditional of exactly these
	// variables, so the conditional caches invalidate along these rows.
	// Patched-in couplings live in the nbrExtra overflow rows.
	nbrOff   []int32
	nbrs     []int32
	nbrExtra [][]int32

	// weightGen counts weight mutations (SetWeight, SetWeights).
	// Conditional caches compare it against the value they were filled
	// under and bulk-invalidate on mismatch, so the learner's gradient steps
	// can never leave a chain serving a stale conditional.
	weightGen uint64

	nGnd int // grounding pool size (live + tombstoned)

	// Patch state (zero on freshly built graphs); see Patch. The overflow
	// tables are nil until the first patch that links a row.
	epoch     int32       // patch generation of this graph
	deadAt    []int32     // per grounding: epoch that tombstoned it (0 = live)
	gndExtra  [][]int32   // per group: overflow grounding ids
	bodyExtra [][]bodyOcc // per var: overflow occurrence records
	adjExtra  [][]int32   // per var: overflow adjacent group ids
	nDead     int         // tombstoned groundings visible at this epoch
	nExtra    int         // groundings living in overflow rows
}

// Clone returns a deep copy of g, sharing no table with it: the one way to
// keep a graph's distribution readable while a Patch moves g on.
func (g *Graph) Clone() *Graph {
	c := *g
	c.evidence, c.evValue = slices.Clone(g.evidence), slices.Clone(g.evValue)
	c.weights = slices.Clone(g.weights)
	c.groupHead, c.groupWeight = slices.Clone(g.groupHead), slices.Clone(g.groupWeight)
	c.groupSem = slices.Clone(g.groupSem)
	c.gndOff, c.litOff, c.lits = slices.Clone(g.gndOff), slices.Clone(g.litOff), slices.Clone(g.lits)
	c.bodyOff, c.bodyRecs = slices.Clone(g.bodyOff), slices.Clone(g.bodyRecs)
	c.adjOff, c.adjGroups = slices.Clone(g.adjOff), slices.Clone(g.adjGroups)
	c.nbrOff, c.nbrs = slices.Clone(g.nbrOff), slices.Clone(g.nbrs)
	for s := range c.semTabs {
		c.semTabs[s] = slices.Clone(g.semTabs[s])
	}
	c.deadAt = slices.Clone(g.deadAt)
	c.nbrExtra, c.gndExtra, c.adjExtra = cloneRows(g.nbrExtra), cloneRows(g.gndExtra), cloneRows(g.adjExtra)
	c.bodyExtra = cloneRows(g.bodyExtra)
	return &c
}

// cloneRows copies an overflow table into one backing array. Each row is
// capped at its length, so an append to it reallocates instead of
// clobbering its neighbor.
func cloneRows[T any](rows [][]T) [][]T {
	if rows == nil {
		return nil
	}
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	flat, out := make([]T, 0, n), make([][]T, len(rows))
	for i, r := range rows {
		if len(r) > 0 {
			at := len(flat)
			flat = append(flat, r...)
			out[i] = flat[at:len(flat):len(flat)]
		}
	}
	return out
}

// NumVars returns the number of variables.
func (g *Graph) NumVars() int { return g.numVars }

// NumGroups returns the number of rule groups.
func (g *Graph) NumGroups() int { return len(g.groupHead) }

// NumGroundings returns the live grounding (factor) count, the paper's
// "# factors". Tombstoned groundings are excluded.
func (g *Graph) NumGroundings() int { return g.nGnd - g.nDead }

// NumWeights returns the size of the tied-weight table.
func (g *Graph) NumWeights() int { return len(g.weights) }

// Patched reports whether a Patch has extended this graph since a Builder
// froze it.
func (g *Graph) Patched() bool { return g.epoch > 0 }

// Epoch returns the patch generation of this graph: 0 for freshly built
// graphs, incremented by each Patch. A serving snapshot records it next to
// the grounding-layer version it was published at.
func (g *Graph) Epoch() int32 { return g.epoch }

// Fragmentation returns the fraction of the grounding pool that costs the
// evaluators extra work: tombstoned groundings (dead weight in the frozen
// CSR rows) plus overflow groundings (reached through per-row indirection
// instead of the contiguous ranges). Callers compact by rebuilding —
// NewBuilderFrom(g).Build() — when this crosses their threshold.
func (g *Graph) Fragmentation() float64 {
	if g.nGnd == 0 { // patched-in groundings count toward nGnd, so the pool is truly empty
		return 0
	}
	return float64(g.nDead+g.nExtra) / float64(g.nGnd)
}

// gndLive reports whether grounding k is visible at this graph's epoch.
// A graph patched in place carries no later stamp, but a Pr(0) image
// written while graphs shared their tombstone array may: those are ignored.
func (g *Graph) gndLive(k int32) bool {
	if g.deadAt == nil {
		return true
	}
	d := g.deadAt[k]
	return d == 0 || d > g.epoch
}

// extraGnds returns group gi's overflow grounding ids (nil when none).
func (g *Graph) extraGnds(gi int32) []int32 {
	if g.gndExtra == nil {
		return nil
	}
	return g.gndExtra[gi]
}

// ExtraNeighbors returns v's patched-in blanket neighbors (nil when none):
// the overflow half of Neighbors, for kernels that walk the frozen CSR row
// themselves.
func (g *Graph) ExtraNeighbors(v VarID) []int32 {
	if g.nbrExtra == nil {
		return nil
	}
	return g.nbrExtra[v]
}

// ExtraAdjacent returns v's patched-in adjacent groups (nil when none), the
// overflow half of AdjacentGroups.
func (g *Graph) ExtraAdjacent(v VarID) []int32 {
	if g.adjExtra == nil {
		return nil
	}
	return g.adjExtra[v]
}

// eachLiveGnd calls f for every live grounding of group gi, frozen range
// first, then overflow. Non-hot-path helper; the samplers use the manual
// loops in groupSupport/shardSupport instead.
func (g *Graph) eachLiveGnd(gi int32, f func(k int32)) {
	for k := g.gndOff[gi]; k < g.gndOff[gi+1]; k++ {
		if g.gndLive(k) {
			f(k)
		}
	}
	for _, k := range g.extraGnds(gi) {
		if g.gndLive(k) {
			f(k)
		}
	}
}

// Group synthesizes the nested view of group i from the flat pools (live
// groundings only). The returned value is a fresh copy; mutating it does
// not affect the graph.
func (g *Graph) Group(i int) *Group {
	gr := &Group{
		Head:   VarID(g.groupHead[i]),
		Weight: WeightID(g.groupWeight[i]),
		Sem:    g.groupSem[i],
	}
	g.eachLiveGnd(int32(i), func(k int32) {
		lits := make([]Literal, 0, g.litOff[k+1]-g.litOff[k])
		for li := g.litOff[k]; li < g.litOff[k+1]; li++ {
			l := g.lits[li]
			lits = append(lits, Literal{Var: VarID(l >> 1), Neg: l&1 == 1})
		}
		gr.Groundings = append(gr.Groundings, Grounding{Lits: lits})
	})
	return gr
}

// GroupWeight returns group i's tied weight id without synthesizing the
// nested view (Group allocates the full grounding list; callers that only
// need attributes should use this or GroupHead).
func (g *Graph) GroupWeight(i int) WeightID { return WeightID(g.groupWeight[i]) }

// GroupHead returns group i's head variable.
func (g *Graph) GroupHead(i int) VarID { return VarID(g.groupHead[i]) }

// Weight returns the current value of weight w.
func (g *Graph) Weight(w WeightID) float64 { return g.weights[w] }

// SetWeight assigns weight w. States derived from the graph observe the
// change immediately (weights are read at evaluation time; cached
// conditionals are invalidated through the weight generation).
func (g *Graph) SetWeight(w WeightID, v float64) {
	g.weights[w] = v
	g.weightGen++
}

// Weights returns the live weight slice (shared, not a copy; read only).
func (g *Graph) Weights() []float64 { return g.weights }

// SetWeights replaces all weight values. len(vals) must match NumWeights.
func (g *Graph) SetWeights(vals []float64) {
	if len(vals) != len(g.weights) {
		panic(fmt.Sprintf("factor: SetWeights got %d values, want %d", len(vals), len(g.weights)))
	}
	copy(g.weights, vals)
	g.weightGen++
}

// WeightGeneration returns the weight mutation counter. Conditional
// caches (State, gibbs.ParallelSampler) record it at fill time and
// bulk-invalidate when it moves.
func (g *Graph) WeightGeneration() uint64 { return g.weightGen }

// semVal returns the precomputed g(n) of group gi.
func (g *Graph) semVal(gi int32, n int) float64 { return g.semTabs[g.groupSem[gi]][n] }

// semGrow extends semantics s's table to cover a support of n.
func (g *Graph) semGrow(s Semantics, n int) {
	tab := g.semTabs[s]
	for len(tab) <= n {
		tab = append(tab, s.G(len(tab)))
	}
	g.semTabs[s] = tab
}

// Neighbors calls f for every variable sharing at least one group with v
// (v's Markov blanket), frozen CSR row first (ascending), then patched-in
// overflow entries.
func (g *Graph) Neighbors(v VarID, f func(VarID)) {
	for _, u := range g.nbrs[g.nbrOff[v]:g.nbrOff[v+1]] {
		f(VarID(u))
	}
	for _, u := range g.ExtraNeighbors(v) {
		f(VarID(u))
	}
}

// GroupVars calls f for group gi's head and for every variable of each
// live grounding, reading the CSR pools directly — no nested-view
// synthesis, no allocation. Variables referenced more than once are
// reported more than once.
func (g *Graph) GroupVars(gi int32, f func(VarID)) {
	f(VarID(g.groupHead[gi]))
	g.eachLiveGnd(gi, func(k int32) {
		for li := g.litOff[k]; li < g.litOff[k+1]; li++ {
			f(VarID(g.lits[li] >> 1))
		}
	})
}

// IsEvidence reports whether v has a fixed value.
func (g *Graph) IsEvidence(v VarID) bool { return g.evidence[v] }

// EvidenceValue returns the fixed value of an evidence variable.
func (g *Graph) EvidenceValue(v VarID) bool { return g.evValue[v] }

// SetEvidence fixes (or, with ev=false, releases) the value of a variable.
// Used by supervision-rule updates; States must be rebuilt or re-synced
// afterwards.
func (g *Graph) SetEvidence(v VarID, ev bool, val bool) {
	g.evidence[v] = ev
	g.evValue[v] = val
}

// AdjacentGroups returns the indices of every group variable v touches
// (as head or in a body), deduplicated. The frozen entries come first in
// ascending order, followed by patched-in entries in patch order.
func (g *Graph) AdjacentGroups(v VarID) []int32 {
	out := append([]int32(nil), g.adjGroups[g.adjOff[v]:g.adjOff[v+1]]...)
	return append(out, g.ExtraAdjacent(v)...)
}

// gndSatisfied reports whether grounding k holds under assign.
func (g *Graph) gndSatisfied(k int32, assign []bool) bool {
	for li := g.litOff[k]; li < g.litOff[k+1]; li++ {
		l := g.lits[li]
		if assign[l>>1] == (l&1 == 1) {
			return false
		}
	}
	return true
}

// groupSupport counts the satisfied live groundings of group gi under
// assign (frozen range plus overflow, tombstones skipped).
func (g *Graph) groupSupport(gi int32, assign []bool) int {
	n := 0
	for k := g.gndOff[gi]; k < g.gndOff[gi+1]; k++ {
		if g.gndLive(k) && g.gndSatisfied(k, assign) {
			n++
		}
	}
	for _, k := range g.extraGnds(gi) {
		if g.gndLive(k) && g.gndSatisfied(k, assign) {
			n++
		}
	}
	return n
}

// GroupStat evaluates group gi's statistic under assign from scratch:
// sign(head)·g(n), n its satisfied live groundings — what its weight
// multiplies in the energy of the world, and what the world adds to that
// weight's sufficient statistic.
func (g *Graph) GroupStat(gi int32, assign []bool) float64 {
	sign := -1.0
	if assign[g.groupHead[gi]] {
		sign = 1.0
	}
	return sign * g.semVal(gi, g.groupSupport(gi, assign))
}

// groupEnergy evaluates one group's energy from scratch under assign,
// walking the flat literal pool.
func (g *Graph) groupEnergy(gi int32, assign []bool) float64 {
	return g.weights[g.groupWeight[gi]] * g.GroupStat(gi, assign)
}

// Energy computes Ŵ(F, I) = Σ_γ w(γ, I) from scratch for the complete
// assignment. Used by the strawman materialization and for testing; Gibbs
// uses incremental support counters instead.
func (g *Graph) Energy(assign []bool) float64 {
	if len(assign) != g.numVars {
		panic(fmt.Sprintf("factor: Energy got %d assignments, want %d", len(assign), g.numVars))
	}
	var e float64
	for gi := range g.groupHead {
		e += g.groupEnergy(int32(gi), assign)
	}
	return e
}

// EnergyOfGroups evaluates only the listed groups under assign. Incremental
// Metropolis-Hastings uses this to score the changed factors ΔF without
// touching the rest of the graph (Section 3.2.2).
func (g *Graph) EnergyOfGroups(assign []bool, groups []int32) float64 {
	var e float64
	for _, gi := range groups {
		e += g.groupEnergy(gi, assign)
	}
	return e
}

// Builder accumulates variables, weights, and groups, then freezes them
// into a Graph. The zero value is ready to use. Groups are kept in the flat
// layout Build freezes — per-group attribute arrays, grounding offsets, one
// literal pool — so Build hands the pools over instead of flattening a
// nested copy, and CopyGroup moves a group from graph to builder without
// synthesizing its nested view. The graph shares the builder's arrays.
type Builder struct {
	evidence []bool
	evValue  []bool
	weights  []float64

	groupHead   []int32
	groupWeight []int32
	groupSem    []Semantics
	gndOff      []int32 // per group: its first grounding
	litOff      []int32 // per grounding: its first literal
	lits        []int32 // var<<1|neg, as in Graph
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// NewBuilderFrom seeds a Builder with a deep copy of an existing graph's
// live structure, so incremental updates can extend it (ΔV, ΔF) and
// rebuild. On a patched graph this is the compaction path: tombstoned
// groundings are dropped and overflow rows fold back into contiguous CSR
// ranges.
func NewBuilderFrom(g *Graph) *Builder {
	b := &Builder{
		evidence: append([]bool(nil), g.evidence...),
		evValue:  append([]bool(nil), g.evValue...),
		weights:  append([]float64(nil), g.weights...),
	}
	b.Grow(0, 0, g.NumGroups())
	for gi := range g.groupHead {
		b.CopyGroup(g, int32(gi), WeightID(g.groupWeight[gi]), func(v VarID) VarID { return v })
	}
	return b
}

// Grow reserves room for vars more variables, weights more weights and
// groups more groups, for callers that know what they are about to add: a
// hint only, exceeding it costs the usual amortized growth.
func (b *Builder) Grow(vars, weights, groups int) {
	b.evidence, b.evValue = slices.Grow(b.evidence, vars), slices.Grow(b.evValue, vars)
	b.weights = slices.Grow(b.weights, weights)
	b.groupHead, b.groupWeight = slices.Grow(b.groupHead, groups), slices.Grow(b.groupWeight, groups)
	b.groupSem, b.gndOff = slices.Grow(b.groupSem, groups), slices.Grow(b.gndOff, groups+1)
}

// GrowGroundings reserves room for groundings more groundings holding lits
// more literals in all, like Grow.
func (b *Builder) GrowGroundings(groundings, lits int) {
	b.litOff, b.lits = slices.Grow(b.litOff, groundings+1), slices.Grow(b.lits, lits)
}

// AddVar registers a new free variable and returns its id.
func (b *Builder) AddVar() VarID {
	b.evidence = append(b.evidence, false)
	b.evValue = append(b.evValue, false)
	return VarID(len(b.evidence) - 1)
}

// AddEvidenceVar registers a new evidence variable fixed to val.
func (b *Builder) AddEvidenceVar(val bool) VarID {
	b.evidence = append(b.evidence, true)
	b.evValue = append(b.evValue, val)
	return VarID(len(b.evidence) - 1)
}

// SetEvidence marks an existing variable as evidence with the given value.
func (b *Builder) SetEvidence(v VarID, val bool) {
	b.evidence[v] = true
	b.evValue[v] = val
}

// ClearEvidence releases an evidence variable back to a free variable.
func (b *Builder) ClearEvidence(v VarID) { b.evidence[v] = false }

// NumVars returns the number of variables added so far.
func (b *Builder) NumVars() int { return len(b.evidence) }

// AddWeight registers a weight with an initial value and returns its id.
func (b *Builder) AddWeight(v float64) WeightID {
	b.weights = append(b.weights, v)
	return WeightID(len(b.weights) - 1)
}

// NumWeights returns the number of weights added so far.
func (b *Builder) NumWeights() int { return len(b.weights) }

// AddGroup appends a rule group and returns its index. The groundings are
// copied into the builder's literal pool; AddGrounding appends further ones.
func (b *Builder) AddGroup(head VarID, w WeightID, sem Semantics, groundings []Grounding) int {
	b.groupHead = append(b.groupHead, int32(head))
	b.groupWeight = append(b.groupWeight, int32(w))
	b.groupSem = append(b.groupSem, sem)
	b.gndOff = append(b.gndOff, int32(len(b.litOff)))
	for _, gnd := range groundings {
		b.AddGrounding(gnd.Lits)
	}
	return len(b.groupHead) - 1
}

// AddGrounding appends one grounding to the group added last. A grounding
// without literals is satisfied in every world.
func (b *Builder) AddGrounding(lits []Literal) {
	b.litOff = append(b.litOff, int32(len(b.lits)))
	for _, lit := range lits {
		b.lits = append(b.lits, int32(lit.Var)<<1|int32(b2i(lit.Neg)))
	}
}

// CopyGroup appends group gi of src — its live groundings, read off src's
// literal pool — under weight w, every variable mapped through local, and
// returns the new group's index. When local maps one of the group's
// variables to NoVar nothing is appended and the result is -1.
func (b *Builder) CopyGroup(src *Graph, gi int32, w WeightID, local func(VarID) VarID) int {
	nGnd, nLit := len(b.litOff), len(b.lits)
	head := local(VarID(src.groupHead[gi]))
	ok := head != NoVar
	src.eachLiveGnd(gi, func(k int32) {
		if !ok {
			return
		}
		b.litOff = append(b.litOff, int32(len(b.lits)))
		for _, l := range src.lits[src.litOff[k]:src.litOff[k+1]] {
			v := local(VarID(l >> 1))
			if v == NoVar {
				ok = false
				return
			}
			b.lits = append(b.lits, int32(v)<<1|l&1)
		}
	})
	if !ok {
		b.litOff, b.lits = b.litOff[:nGnd], b.lits[:nLit]
		return -1
	}
	b.groupHead = append(b.groupHead, int32(head))
	b.groupWeight = append(b.groupWeight, int32(w))
	b.groupSem = append(b.groupSem, src.groupSem[gi])
	b.gndOff = append(b.gndOff, int32(nGnd))
	return len(b.groupHead) - 1
}

// Build validates the accumulated structure and freezes it into a Graph:
// the builder's flat pools (literal pool, grounding offsets, group attribute
// arrays) become the graph's, and the per-variable adjacency indexes are
// built over them. Graph.Group synthesizes the nested view back from the
// flat pools on demand.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.evidence)
	nG := len(b.groupHead)
	nGnd := len(b.litOff)
	g := &Graph{
		numVars:     n,
		evidence:    b.evidence,
		evValue:     b.evValue,
		weights:     b.weights,
		groupHead:   fit(b.groupHead),
		groupWeight: fit(b.groupWeight),
		groupSem:    fit(b.groupSem),
		gndOff:      fit(append(b.gndOff, int32(nGnd))),
		litOff:      fit(append(b.litOff, int32(len(b.lits)))),
		lits:        fit(b.lits),
		nGnd:        nGnd,
	}

	// Pass 1: validate.
	for gi := 0; gi < nG; gi++ {
		if h := g.groupHead[gi]; h < 0 || int(h) >= n {
			return nil, fmt.Errorf("factor: group %d head %d out of range [0,%d)", gi, h, n)
		}
		if w := g.groupWeight[gi]; w < 0 || int(w) >= len(g.weights) {
			return nil, fmt.Errorf("factor: group %d weight %d out of range [0,%d)", gi, w, len(g.weights))
		}
		if g.groupSem[gi] >= numSemantics {
			return nil, fmt.Errorf("factor: group %d has unknown semantics %d", gi, g.groupSem[gi])
		}
		for k := g.gndOff[gi]; k < g.gndOff[gi+1]; k++ {
			for _, l := range g.lits[g.litOff[k]:g.litOff[k+1]] {
				if v := l >> 1; v < 0 || int(v) >= n {
					return nil, fmt.Errorf("factor: group %d grounding %d references var %d out of range [0,%d)", gi, k-g.gndOff[gi], v, n)
				}
			}
		}
	}

	// Pass 2: list, group after group, each group's distinct variables and
	// its (variable, grounding) occurrence records — a grounding's own
	// stretch of them is searched linearly (groundings have a handful of
	// literals) — and size every variable's rows on the way: one adjacency
	// entry per group it appears in, one occurrence record per grounding, and
	// (before deduplication) one neighbor entry per other variable of each
	// of its groups.
	type varOcc struct {
		v   int32
		occ bodyOcc
	}
	occs := make([]varOcc, 0, len(g.lits))
	groupVars := make([]int32, 0, nG+len(g.lits))
	varsEnd := make([]int32, nG)  // per group: end of its stretch of groupVars
	groupMark := make([]int32, n) // stamp = group index + 1
	g.adjOff, g.bodyOff = make([]int32, n+1), make([]int32, n+1)
	nbrOff := make([]int32, n+1)
	for gi := 0; gi < nG; gi++ {
		stamp := int32(gi) + 1
		firstVar, firstOcc := len(groupVars), len(occs)
		groupMark[g.groupHead[gi]] = stamp
		groupVars = append(groupVars, g.groupHead[gi])
		for k := g.gndOff[gi]; k < g.gndOff[gi+1]; k++ {
			first := len(occs)
			for _, l := range g.lits[g.litOff[k]:g.litOff[k+1]] {
				v := l >> 1
				if groupMark[v] != stamp {
					groupMark[v] = stamp
					groupVars = append(groupVars, v)
				}
				at := first
				for at < len(occs) && occs[at].v != v {
					at++
				}
				if at == len(occs) {
					occs = append(occs, varOcc{v: v, occ: bodyOcc{group: int32(gi), gnd: k}})
				}
				occs[at].occ.n[l&1]++
			}
		}
		varsEnd[gi] = int32(len(groupVars))
		others := int32(len(groupVars) - firstVar - 1)
		for _, v := range groupVars[firstVar:] {
			g.adjOff[v+1]++
			nbrOff[v+1] += others
		}
		for _, o := range occs[firstOcc:] {
			g.bodyOff[o.v+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.adjOff[v+1] += g.adjOff[v]
		g.bodyOff[v+1] += g.bodyOff[v]
		nbrOff[v+1] += nbrOff[v]
	}

	// Pass 3: fill the rows, groups ascending, so every row comes out in
	// group order (the body records of one group in first-occurrence order).
	g.adjGroups = make([]int32, g.adjOff[n])
	g.bodyRecs = make([]bodyOcc, g.bodyOff[n])
	nbrs := make([]int32, nbrOff[n])
	adjAt, bodyAt, nbrAt := slices.Clone(g.adjOff[:n]), slices.Clone(g.bodyOff[:n]), slices.Clone(nbrOff[:n])
	from := int32(0)
	for gi := 0; gi < nG; gi++ {
		vars := groupVars[from:varsEnd[gi]]
		from = varsEnd[gi]
		for i, v := range vars {
			g.adjGroups[adjAt[v]] = int32(gi)
			adjAt[v]++
			nbrAt[v] += int32(copy(nbrs[nbrAt[v]:], vars[:i]))
			nbrAt[v] += int32(copy(nbrs[nbrAt[v]:], vars[i+1:]))
		}
	}
	for _, o := range occs {
		g.bodyRecs[bodyAt[o.v]] = o.occ
		bodyAt[o.v]++
	}

	// The Markov-blanket rows: sorted, deduplicated, packed to the front.
	g.nbrOff = make([]int32, n+1)
	packed := int32(0)
	for v := 0; v < n; v++ {
		row := sortDedupInt32(nbrs[nbrOff[v]:nbrOff[v+1]])
		g.nbrOff[v] = packed
		packed += int32(copy(nbrs[packed:], row))
	}
	g.nbrOff[n] = packed
	if g.nbrs = nbrs[:packed]; int(packed) < len(nbrs) {
		g.nbrs = slices.Clone(g.nbrs) // do not retain the duplicates' room
	}

	for gi, sem := range g.groupSem {
		g.semGrow(sem, int(g.gndOff[gi+1]-g.gndOff[gi]))
	}
	return g, nil
}

// fit returns pool, copied to its length when more than an eighth of it is
// room its builder grew and never filled: a graph outlives its builder.
func fit[T any](pool []T) []T {
	if cap(pool)-len(pool) > len(pool)/8 {
		return slices.Clone(pool)
	}
	return pool
}

// sortDedupInt32 sorts a row ascending and drops duplicates in place.
func sortDedupInt32(row []int32) []int32 {
	slices.Sort(row)
	return slices.Compact(row)
}

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are known valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
