package factor

import (
	"fmt"
	"math"
)

// occDelta is the per-occurrence scratch record the fused sweep kernel
// fills while computing a conditional: the grounding's current unsatisfied
// count and its value under either candidate assignment of the variable.
// If the kernel's caller then applies a flip, the new counter values are
// already here — no second walk over the occurrence records.
type occDelta struct {
	u, uT, uF uint16
}

// State is one mutable possible world over a Graph: a full assignment plus
// incrementally maintained support counters (per-grounding unsatisfied
// literal counts and per-group satisfied-grounding counts). The counters
// live in flat arrays indexed by the graph's global grounding indices, so
// a Gibbs flip touches contiguous memory. Multiple States may share one
// Graph; a State is not safe for concurrent use (gibbs.ParallelSampler
// shards work across its own worker-local evaluation instead).
//
// On top of the counters the State memoizes conditionals: each variable's
// last EnergyDelta (and its sigmoid) stays valid until a variable in its
// Markov blanket flips — a flip invalidates exactly the flipped variable's
// neighbor row of the graph's blanket CSR. Near convergence, where most
// resamples keep the current value, a sweep then skips both the adjacency
// walk and the math.Exp for most variables. The cache is bitwise
// transparent: a hit returns exactly the float64 a recomputation would
// produce, so a chain draws what direct evaluation would draw.
// Weight changes invalidate in bulk, either automatically through the
// graph's weight generation (SetWeight/SetWeights) or explicitly through
// InvalidateConditionals when weights are mutated behind the graph's back.
type State struct {
	G      *Graph
	Assign []bool

	unsat []uint16 // per global grounding index: # unsatisfied literals
	sat   []int32  // per group: # satisfied groundings

	// Markov-blanket conditional cache. An entry is valid when
	// cStamp[v] == stamp; sigOK marks entries whose sigmoid has also been
	// materialized. stamp starts at 1 so zeroed entries are invalid, and
	// bulk invalidation is one increment.
	cDelta []float64
	cSig   []float64
	sigOK  []bool
	cStamp []uint32
	stamp  uint32
	wgen   uint64 // graph weight generation the cache was filled under

	scratch []occDelta // fused-kernel transition buffer, grown once
}

// NewState builds a State with every free variable false and evidence
// variables at their fixed values.
func NewState(g *Graph) *State {
	assign := make([]bool, g.numVars)
	for v := 0; v < g.numVars; v++ {
		if g.evidence[v] {
			assign[v] = g.evValue[v]
		}
	}
	return NewStateWith(g, assign)
}

// NewStateWith builds a State from an explicit assignment. Evidence
// variables are forced to their fixed values regardless of assign.
func NewStateWith(g *Graph, assign []bool) *State {
	if len(assign) != g.numVars {
		panic(fmt.Sprintf("factor: NewStateWith got %d assignments, want %d", len(assign), g.numVars))
	}
	s := &State{
		G:      g,
		Assign: append([]bool(nil), assign...),
		unsat:  make([]uint16, g.nGnd),
		sat:    make([]int32, g.NumGroups()),
		cDelta: make([]float64, g.numVars),
		cSig:   make([]float64, g.numVars),
		sigOK:  make([]bool, g.numVars),
		cStamp: make([]uint32, g.numVars),
		stamp:  1,
		wgen:   g.weightGen,
	}
	for v := 0; v < g.numVars; v++ {
		if g.evidence[v] {
			s.Assign[v] = g.evValue[v]
		}
	}
	s.Recount()
	return s
}

// Recount rebuilds all support counters from the current assignment and
// drops every cached conditional. Needed after evidence changes on the
// shared Graph.
//
// Tombstoned groundings get a permanent +1 floor on their unsatisfied
// count: flips adjust the counter relatively (u − now + after), so a
// floored counter can never reach zero and the dead grounding never
// contributes to a group's support — with no per-flip liveness check.
func (s *State) Recount() {
	g := s.G
	if len(s.unsat) != g.nGnd {
		s.unsat = make([]uint16, g.nGnd)
	}
	if len(s.sat) != g.NumGroups() {
		s.sat = make([]int32, g.NumGroups())
	}
	for gi := range g.groupHead {
		var sat int32
		for k := g.gndOff[gi]; k < g.gndOff[gi+1]; k++ {
			sat += s.recountGnd(k)
		}
		for _, k := range g.extraGnds(int32(gi)) {
			sat += s.recountGnd(k)
		}
		s.sat[gi] = sat
	}
	s.InvalidateConditionals()
}

// recountGnd refreshes the unsatisfied-literal counter of grounding k and
// reports 1 when it counts toward its group's support.
func (s *State) recountGnd(k int32) int32 {
	g := s.G
	var u uint16
	for li := g.litOff[k]; li < g.litOff[k+1]; li++ {
		l := g.lits[li]
		if s.Assign[l>>1] == (l&1 == 1) {
			u++
		}
	}
	if !g.gndLive(k) {
		s.unsat[k] = u + 1 // tombstone floor: never satisfiable
		return 0
	}
	s.unsat[k] = u
	if u == 0 {
		return 1
	}
	return 0
}

// Support returns the current satisfied-grounding count of group gi.
func (s *State) Support(gi int) int { return int(s.sat[gi]) }

// Energy returns the total energy of the current world, computed from the
// maintained counters (O(#groups)).
func (s *State) Energy() float64 {
	var e float64
	g := s.G
	for gi := range g.groupHead {
		sign := -1.0
		if s.Assign[g.groupHead[gi]] {
			sign = 1.0
		}
		e += g.weights[g.groupWeight[gi]] * sign * g.semVal(int32(gi), int(s.sat[gi]))
	}
	return e
}

// InvalidateConditionals drops every cached conditional in O(1), so the
// next sweep recomputes each one. Weight changes through
// Graph.SetWeight/SetWeights are detected automatically (ensureFresh).
func (s *State) InvalidateConditionals() {
	s.stamp++
	if s.stamp == 0 { // wrapped: stale stamps could collide, clear them
		for i := range s.cStamp {
			s.cStamp[i] = 0
		}
		s.stamp = 1
	}
}

// ensureFresh bulk-invalidates when the graph's weights changed since the
// cache was last filled.
func (s *State) ensureFresh() {
	if s.wgen != s.G.weightGen {
		s.wgen = s.G.weightGen
		s.InvalidateConditionals()
	}
}

// overflowVar reports whether v carries patched-in occurrence or
// adjacency rows. Such variables evaluate through the direct path and are
// conservatively never cached (their count is O(|Δ|) after a patch, so
// the fast path still covers the untouched bulk).
func (s *State) overflowVar(v VarID) bool {
	g := s.G
	return len(g.ExtraAdjacent(v)) > 0 || g.bodyExtra != nil && len(g.bodyExtra[v]) > 0
}

// invalidateBlanket drops the cached conditionals of every variable whose
// conditional can observe a flip of v: v's Markov blanket, read off the
// graph's neighbor CSR (frozen row plus patched-in overflow). v's own
// entry stays valid — EnergyDelta(v) is conditioned on the rest of the
// world and does not depend on v's current value.
func (s *State) invalidateBlanket(v VarID) {
	g := s.G
	cStamp := s.cStamp
	for _, u := range g.nbrs[g.nbrOff[v]:g.nbrOff[v+1]] {
		cStamp[u] = 0
	}
	for _, u := range g.ExtraNeighbors(v) {
		cStamp[u] = 0
	}
}

// deltaFused is the fused conditional kernel: one pass over v's occurrence
// records computes the group supports under both candidate values
// (E(v=true) − E(v=false) via the semantics tables) and records each
// grounding's counter transitions in the scratch buffer, so an
// immediately following flip applies from scratch without re-walking the
// records. Caller guarantees v has no overflow rows. Allocation-free
// after the scratch buffer's first growth; all slice headers are hoisted
// out of the record loop.
func (s *State) deltaFused(v VarID) float64 {
	g := s.G
	assign := s.Assign
	cur := assign[v]
	recs := g.bodyRecs[g.bodyOff[v]:g.bodyOff[v+1]]
	if cap(s.scratch) < len(recs) {
		s.scratch = make([]occDelta, len(recs)+16)
	}
	scr := s.scratch[:len(recs)]
	unsat, sat := s.unsat, s.sat
	weights, groupWeight, groupHead := g.weights, g.groupWeight, g.groupHead
	groupSem, semTabs := g.groupSem, &g.semTabs
	ci := b2i(cur)
	ri := 0
	var delta float64
	for _, gi := range g.adjGroups[g.adjOff[v]:g.adjOff[v+1]] {
		n1 := sat[gi]
		n0 := n1
		for ri < len(recs) && recs[ri].group == gi {
			occ := &recs[ri]
			u := unsat[occ.gnd]
			now := occ.n[ci]
			uT := u - now + occ.n[1]
			uF := u - now + occ.n[0]
			scr[ri] = occDelta{u: u, uT: uT, uF: uF}
			if u == 0 {
				if uT != 0 {
					n1--
				}
				if uF != 0 {
					n0--
				}
			} else {
				if uT == 0 {
					n1++
				}
				if uF == 0 {
					n0++
				}
			}
			ri++
		}
		tab := semTabs[groupSem[gi]]
		w := weights[groupWeight[gi]]
		if groupHead[gi] == int32(v) {
			// Head group: sign flips with v. If v also appears in the body,
			// the transitions above count support under each value.
			// E(v=1) = +w·g(n1); E(v=0) = −w·g(n0) ⇒ diff = w·(g(n1)+g(n0)).
			delta += w * (tab[n1] + tab[n0])
		} else {
			// Body-only group: sign fixed by the head's current value.
			sign := -1.0
			if assign[groupHead[gi]] {
				sign = 1.0
			}
			delta += w * sign * (tab[n1] - tab[n0])
		}
	}
	return delta
}

// applyScratch flips v to val using the counter transitions deltaFused
// just recorded — the second half of the fused kernel.
func (s *State) applyScratch(v VarID, val bool) {
	g := s.G
	recs := g.bodyRecs[g.bodyOff[v]:g.bodyOff[v+1]]
	scr := s.scratch[:len(recs)]
	unsat, sat := s.unsat, s.sat
	vi := b2i(val)
	for i := range recs {
		occ := &recs[i]
		sc := &scr[i]
		uNew := sc.uF
		if vi == 1 {
			uNew = sc.uT
		}
		if uNew != sc.u {
			unsat[occ.gnd] = uNew
			if sc.u == 0 {
				sat[occ.group]--
			} else if uNew == 0 {
				sat[occ.group]++
			}
		}
	}
	s.Assign[v] = val
}

// EnergyDelta returns E(v=true) − E(v=false) conditioned on the rest of
// the current assignment. This is the quantity Gibbs needs:
// P(v=1 | rest) = sigmoid(EnergyDelta(v)).
//
// The result is served from the conditional cache when no blanket
// variable flipped since it was computed; a miss runs the fused kernel
// over v's deduplicated adjacency and occurrence records (O(occurrences
// of v), using the maintained counters and semantics tables). Variables
// with patched-in adjacency (overflow rows) fall back to direct
// evaluation over the flat layout and are never cached — such variables
// are Δ-sized after a patch, so the fast path still covers the untouched
// bulk.
func (s *State) EnergyDelta(v VarID) float64 {
	s.ensureFresh()
	if s.cStamp[v] == s.stamp {
		return s.cDelta[v]
	}
	if s.overflowVar(v) {
		return s.G.EnergyDeltaOf(s.Assign, v)
	}
	d := s.deltaFused(v)
	s.cDelta[v] = d
	s.sigOK[v] = false
	s.cStamp[v] = s.stamp
	return d
}

// condSig returns P(v=true | rest) and whether the scratch buffer holds
// v's counter transitions from a fresh kernel walk this call (so a flip
// can apply without re-walking).
func (s *State) condSig(v VarID) (sig float64, fresh bool) {
	if s.cStamp[v] == s.stamp {
		if s.sigOK[v] {
			return s.cSig[v], false
		}
		sig = 1 / (1 + math.Exp(-s.cDelta[v]))
		s.cSig[v] = sig
		s.sigOK[v] = true
		return sig, false
	}
	if s.overflowVar(v) {
		return 1 / (1 + math.Exp(-s.G.EnergyDeltaOf(s.Assign, v))), false
	}
	d := s.deltaFused(v)
	sig = 1 / (1 + math.Exp(-d))
	s.cDelta[v] = d
	s.cSig[v] = sig
	s.sigOK[v] = true
	s.cStamp[v] = s.stamp
	return sig, true
}

// CondProb returns P(v = true | rest of assignment), cached like
// EnergyDelta (the sigmoid is memoized alongside the delta, so a cache
// hit skips the math.Exp too).
func (s *State) CondProb(v VarID) float64 {
	s.ensureFresh()
	sig, _ := s.condSig(v)
	return sig
}

// SampleVar is the fused resample kernel: given a uniform draw u, it
// computes P(v=true | rest) (cached, or one fused kernel walk), decides
// the new value, and applies a flip — from the kernel's own scratch
// transitions when the walk just ran, with no re-walk of the occurrence
// records — invalidating the flipped variable's blanket. Returns the
// sampled value. Sampling an evidence variable panics.
func (s *State) SampleVar(v VarID, u float64) bool {
	if s.G.evidence[v] {
		panic(fmt.Sprintf("factor: SampleVar on evidence variable %d", v))
	}
	s.ensureFresh()
	sig, fresh := s.condSig(v)
	val := u < sig
	if val != s.Assign[v] {
		if fresh {
			s.applyScratch(v, val)
		} else {
			s.setAny(v, val)
		}
		s.invalidateBlanket(v)
	}
	return val
}

// Set assigns variable v to val, updating support counters incrementally
// and invalidating the blanket's cached conditionals. Setting an evidence
// variable panics.
func (s *State) Set(v VarID, val bool) {
	if s.G.evidence[v] {
		panic(fmt.Sprintf("factor: Set on evidence variable %d", v))
	}
	if s.setAny(v, val) {
		s.invalidateBlanket(v)
	}
}

// setAny performs the flip without the evidence guard or blanket
// invalidation; reports whether the value changed.
func (s *State) setAny(v VarID, val bool) bool {
	cur := s.Assign[v]
	if cur == val {
		return false
	}
	s.Assign[v] = val
	g := s.G
	ci, vi := b2i(cur), b2i(val)
	unsat, sat := s.unsat, s.sat
	for i := g.bodyOff[v]; i < g.bodyOff[v+1]; i++ {
		occ := &g.bodyRecs[i]
		u := unsat[occ.gnd]
		uAfter := u - occ.n[ci] + occ.n[vi]
		if uAfter != u {
			unsat[occ.gnd] = uAfter
			if u == 0 {
				sat[occ.group]--
			} else if uAfter == 0 {
				sat[occ.group]++
			}
		}
	}
	if g.bodyExtra != nil {
		extra := g.bodyExtra[v]
		for i := range extra {
			occ := &extra[i]
			u := unsat[occ.gnd]
			uAfter := u - occ.n[ci] + occ.n[vi]
			if uAfter != u {
				unsat[occ.gnd] = uAfter
				if u == 0 {
					sat[occ.group]--
				} else if uAfter == 0 {
					sat[occ.group]++
				}
			}
		}
	}
	return true
}

// SyncEvidence re-reads evidence flags/values from the shared Graph and
// forces evidence variables to their fixed values, updating counters and
// invalidating affected cached conditionals.
func (s *State) SyncEvidence() {
	for v := 0; v < s.G.numVars; v++ {
		if s.G.evidence[v] && s.Assign[v] != s.G.evValue[v] {
			if s.setAny(VarID(v), s.G.evValue[v]) {
				s.invalidateBlanket(VarID(v))
			}
		}
	}
}

// SetAssignment overwrites the whole assignment (respecting evidence) and
// recounts (dropping all cached conditionals). Used when adopting a
// proposal world wholesale.
func (s *State) SetAssignment(assign []bool) {
	if len(assign) != s.G.numVars {
		panic(fmt.Sprintf("factor: SetAssignment got %d values, want %d", len(assign), s.G.numVars))
	}
	copy(s.Assign, assign)
	for v := 0; v < s.G.numVars; v++ {
		if s.G.evidence[v] {
			s.Assign[v] = s.G.evValue[v]
		}
	}
	s.Recount()
}

// WeightStats accumulates, for each weight id, the statistic
// Σ_groups sign(head)·g(n) of the current world into out. This is the
// sufficient statistic for maximum-likelihood weight learning:
// ∂ log Pr[I] / ∂w_k = stat_k(I) − E[stat_k]. len(out) must be NumWeights.
func (s *State) WeightStats(out []float64) {
	g := s.G
	if len(out) != len(g.weights) {
		panic(fmt.Sprintf("factor: WeightStats got %d slots, want %d", len(out), len(g.weights)))
	}
	for gi := range g.groupHead {
		sign := -1.0
		if s.Assign[g.groupHead[gi]] {
			sign = 1.0
		}
		out[g.groupWeight[gi]] += sign * g.semVal(int32(gi), int(s.sat[gi]))
	}
}
