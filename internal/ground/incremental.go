package ground

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
)

// Update describes one iteration of the KBC development loop
// (Section 3.1): base-data changes and/or new rules. The paper's rule
// categories map directly: FE rules and I rules arrive as NewRules with
// weights; S rules as NewRules deriving into _Ev relations; new documents
// as Inserts into base relations.
type Update struct {
	Inserts  map[string][]db.Tuple
	Deletes  map[string][]db.Tuple
	NewRules []*datalog.Rule
}

// Empty reports whether the update changes nothing.
func (u *Update) Empty() bool {
	return len(u.Inserts) == 0 && len(u.Deletes) == 0 && len(u.NewRules) == 0
}

// Delta summarizes how an update changed the grounded factor graph — the
// (ΔV, ΔF) the incremental-inference phase consumes (Section 3.2).
type Delta struct {
	// NewVars are variables created by this update.
	NewVars []factor.VarID
	// ModifiedGroups are indexes of pre-existing groups whose grounding
	// sets changed (valid in both the old and the new graph).
	ModifiedGroups []int
	// AddedGroups are indexes of groups created by this update (valid in
	// the new graph only).
	AddedGroups []int
	// LivenessChanged are pre-existing variables whose tuple left the
	// candidate set or came back to it (IsLive toggled at least once during
	// the update; one that toggled back is still listed). Ascending.
	LivenessChanged []factor.VarID
	// EvidenceChanged are variables whose evidence status or value
	// changed (supervision updates).
	EvidenceChanged []factor.VarID
	// NewWeights are weight ids created by this update (new features).
	NewWeights []factor.WeightID
}

// StructureChanged reports whether the update touched the graph structure
// (factors added/removed or new variables) — the first rule of the
// paper's materialization optimizer.
func (d *Delta) StructureChanged() bool {
	return len(d.NewVars) > 0 || len(d.ModifiedGroups) > 0 || len(d.AddedGroups) > 0
}

// HasEvidenceChange reports whether supervision changed.
func (d *Delta) HasEvidenceChange() bool { return len(d.EvidenceChanged) > 0 }

// HasNewFeatures reports whether new tied weights appeared.
func (d *Delta) HasNewFeatures() bool { return len(d.NewWeights) > 0 }

// ChangedGroupsOld returns the group indexes whose energy differs between
// the old and new distribution, restricted to groups that exist in the
// old graph.
func (d *Delta) ChangedGroupsOld() []int32 {
	out := make([]int32, 0, len(d.ModifiedGroups))
	for _, gi := range d.ModifiedGroups {
		out = append(out, int32(gi))
	}
	return out
}

// ChangedGroupsNew returns the group indexes whose energy differs between
// the old and new distribution, as indexes into the new graph.
func (d *Delta) ChangedGroupsNew() []int32 {
	out := make([]int32, 0, len(d.ModifiedGroups)+len(d.AddedGroups))
	for _, gi := range d.ModifiedGroups {
		out = append(out, int32(gi))
	}
	for _, gi := range d.AddedGroups {
		out = append(out, int32(gi))
	}
	return out
}

// ErrBadTuple is the class of the errors that reject a base tuple before
// anything is mutated: the wrong number of columns for its relation, a
// value holding the reserved 0x1f byte, a delete of a tuple the relation
// does not hold.
var ErrBadTuple = errors.New("ground: bad tuple")

// checkBaseTuples reports the first reason rel cannot take tuples.
func (g *Grounder) checkBaseTuples(rel string, tuples []db.Tuple) error {
	r := g.data.Relation(rel)
	if r == nil {
		return fmt.Errorf("ground: unknown relation %s", rel)
	}
	for _, t := range tuples {
		if err := r.Accepts(t); err != nil {
			return fmt.Errorf("%w: %v", ErrBadTuple, err)
		}
	}
	return nil
}

// ApplyUpdate incrementally folds an update into the grounding state:
// base deltas propagate through the rule pipeline with DRed-style delta
// joins (old rules touched by changed relations re-evaluate only the
// delta terms; untouched rules are skipped), and new rules are evaluated
// once in full. Returns the Δ bookkeeping for incremental inference. The
// first update is the from-scratch grounding: see ApplyUpdateStaged.
func (g *Grounder) ApplyUpdate(u Update) (*Delta, error) {
	d, commit, err := g.ApplyUpdateStaged(u)
	if err != nil {
		return nil, err
	}
	commit()
	return d, nil
}

// ApplyUpdateStaged is the two-phase form of ApplyUpdate: the returned
// Delta reflects a fully evaluated update (all relation, variable,
// weight, and group state is mutated), but the cached factor graph has
// not advanced and the grounding version has not bumped — that is what
// commit does. The split lets a serving layer act between the two, e.g.
// make the update's write-ahead record durable before the commit it
// describes.
//
// The caller must invoke commit exactly once, before any subsequent
// ApplyUpdate/ApplyUpdateStaged/Graph call on this grounder, and must not
// run commit concurrently with evaluation over the cached graph: commit
// patches that graph in place (see factor.Patch), so a caller that still
// needs the pre-update graph reads it before commit. An update rejected
// up front (unknown or derived target relations, tuples of the wrong
// arity, with a reserved byte or deleting what is not there —
// ErrBadTuple —, rules that do not validate, compile, plan or stay
// non-recursive) leaves the grounder exactly as it was; an error during
// evaluation (a bad evidence label) returns no commit and may leave it
// partially updated with a dirty graph. ApplyUpdate behaves the same.
//
// The first update (version 0) grounds from the empty database: every
// rule counts as new and is evaluated in full, and the tuples LoadBase
// staged join the update's inserts, ahead of its own. That is the initial
// Ground; grounding from scratch has no path of its own.
func (g *Grounder) ApplyUpdateStaged(u Update) (*Delta, func(), error) {
	if g.loaded != nil {
		ins := maps.Clone(g.loaded)
		for rel, ts := range u.Inserts {
			ins[rel] = slices.Concat(ins[rel], ts)
		}
		u.Inserts = ins
	}
	// 1. Everything that can reject the update runs before the first
	// mutation, so a rejected update leaves the program, every relation and
	// the version untouched: base deltas must name existing, non-derived
	// relations (a new rule's head counts as derived only once the rule is
	// in), and new rules must validate at the program level, compile —
	// including join planning — and keep the rule set non-recursive. So a
	// rejected update interns no symbol either.
	for _, m := range []map[string][]db.Tuple{u.Inserts, u.Deletes} {
		for rel, ts := range m {
			if err := g.checkBaseTuples(rel, ts); err != nil {
				return nil, nil, err
			}
		}
	}
	for rel, ts := range u.Deletes {
		// Inserts apply first: a delete may take back what this update put in,
		// never more copies than the relation then holds.
		r, net := g.data.Relation(rel), map[string]int{}
		for _, t := range u.Inserts[rel] {
			net[t.Key()]++
		}
		for _, t := range ts {
			k := t.Key()
			if net[k]--; r.Count(t)+net[k] < 0 {
				return nil, nil, fmt.Errorf("%w: delete of %q, which %s does not hold", ErrBadTuple, []string(t), rel)
			}
		}
	}
	newHeads := make(map[string]bool)
	for _, r := range u.NewRules {
		newHeads[r.Head.Pred] = true
	}
	for rel := range u.Inserts {
		if g.derived[rel] && !newHeads[rel] {
			return nil, nil, fmt.Errorf("ground: cannot insert directly into derived relation %s", rel)
		}
	}
	newRules := make(map[*ruleEval]bool)
	if len(u.NewRules) > 0 {
		// Compiling interns the rules' constants: a rule set that is
		// refused takes its symbols back with it.
		nOld, nSyms := len(g.prog.Rules), g.data.Symbols().Len()
		g.prog.Rules = append(g.prog.Rules, u.NewRules...)
		// The program's rules were validated when they were added, and
		// validation reads only the declarations: check the new ones.
		err := datalog.ValidateRules(g.prog, u.NewRules)
		var res []*ruleEval
		if err == nil {
			res, err = g.addRules(u.NewRules)
		}
		if err != nil {
			g.prog.Rules = g.prog.Rules[:nOld]
			g.data.Symbols().Truncate(nSyms)
			return nil, nil, err
		}
		for _, re := range res {
			newRules[re] = true
		}
	}

	g.loaded = nil

	// In-place patching needs the cached graph to reflect the pre-update
	// state; decide before mutating anything. The dirty flag is set
	// eagerly so error paths (which may leave the grounder partially
	// updated) can never serve a stale cached graph.
	canPatch := g.inPlace && g.lastGraph != nil && !g.graphDirty
	g.graphDirty = true
	g.data.BeginPass()
	// The first update evaluates every rule in full: no rule reads a delta
	// list.
	tr := newTracker(len(g.rels), g.version > 0)

	// 2. Apply base-relation deltas, relations in sorted-name order:
	// applyTupleDelta interns variables for variable base relations (and
	// an insert its values' symbols), so a map-order walk here would make
	// VarID and symbol assignment depend on Go's map iteration — breaking
	// the bit-for-bit determinism WAL replay (and the differential
	// harnesses) relies on. A delete's values are interned already: the
	// relation holds the tuple.
	syms := g.data.Symbols()
	var row []db.Sym
	for _, rel := range sortedRelNames(u.Inserts) {
		for _, t := range u.Inserts[rel] {
			row = syms.AppendIDs(row[:0], t)
			if err := g.applyTupleDelta(tr, g.relSeq[rel], row, +1); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, rel := range sortedRelNames(u.Deletes) {
		for _, t := range u.Deletes[rel] {
			row, _ = syms.FindIDs(row[:0], t)
			if err := g.applyTupleDelta(tr, g.relSeq[rel], row, -1); err != nil {
				return nil, nil, err
			}
		}
	}

	// 3. Propagate through the derivation pipeline in topological order,
	// then ground weighted rules over the final candidate sets: new rules
	// are evaluated once in full, existing rules by their DRed delta terms.
	// Each rule's jobs are listed before any is evaluated, then evaluated
	// and applied in turn, which never materializes binding lists.
	levels := make([][]*ruleEval, 0, len(g.topo)+1)
	for _, relName := range g.topo {
		levels = append(levels, g.rulesByHead[relName])
	}
	levels = append(levels, g.weighted)
	for _, rules := range levels {
		for _, re := range rules {
			g.jobs = g.ruleJobs(g.jobs[:0], re, tr, newRules[re])
			for i := range g.jobs {
				if err := g.evalApply(&g.jobs[i], tr); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	// Touched groundings in group order, then grounding order — the order
	// a walk of each group's groundings meets them — so patchGraph lays them
	// out the same on every run.
	slices.SortFunc(tr.touched, func(a, b int32) int {
		if ga, gb := g.gnds[a].group, g.gnds[b].group; ga != gb {
			return cmp.Compare(ga, gb)
		}
		return cmp.Compare(a, b)
	})
	tr.touched = slices.Compact(tr.touched)
	d := &Delta{
		NewVars:    tr.newVars,
		NewWeights: tr.newWeights,
	}
	for _, i := range tr.touched {
		if gi := int(g.gnds[i].group); len(d.ModifiedGroups) == 0 || d.ModifiedGroups[len(d.ModifiedGroups)-1] != gi {
			d.ModifiedGroups = append(d.ModifiedGroups, gi)
		}
	}
	d.AddedGroups = tr.addedGroups // ascending: groups are append-only
	slices.Sort(tr.evChanged)
	tr.evChanged = slices.Compact(tr.evChanged)
	d.EvidenceChanged = tr.evChanged
	slices.Sort(tr.liveToggled)
	d.LivenessChanged = slices.Compact(tr.liveToggled)
	commit := func() {
		if canPatch && g.lastGraph.FragmentationAfter(g.patchCounts(tr)) <= g.compactionThreshold() {
			g.patchGraph(tr)
		}
		g.version++
	}
	return d, commit, nil
}

// evalJob is one join evaluation: a rule's plan for one DRed term (or a
// full evaluation), the delta tuple bound at the plan's seed position, and
// the sign its bindings are applied with.
type evalJob struct {
	re   *ruleEval
	plan *db.Plan // nil for an empty-body rule: one binding, no variables
	seed []db.Sym // nil for a full evaluation
	sign int      // +1 derive, -1 retract
}

// evalApply evaluates one job and applies each binding as it is emitted.
func (g *Grounder) evalApply(j *evalJob, tr *tracker) error {
	if j.plan == nil {
		return g.applyBinding(j.re, nil, j.sign, tr)
	}
	var err error
	j.plan.Run(&g.exec, j.seed, func(regs []db.Sym) bool {
		err = g.applyBinding(j.re, regs, j.sign, tr)
		return err == nil
	})
	return err
}

// ruleJobs appends one rule's share of an update to jobs: a full
// evaluation for a rule the update introduced — every rule, on the first
// update, which grounds from the empty database — and the DRed delta terms
// for an existing one.
func (g *Grounder) ruleJobs(jobs []evalJob, re *ruleEval, tr *tracker, isNew bool) []evalJob {
	if isNew || g.version == 0 {
		return append(jobs, re.fullJob())
	}
	return g.deltaJobs(jobs, re, tr)
}

// fullJob is a full-rule evaluation over the live state.
func (re *ruleEval) fullJob() evalJob {
	if len(re.rule.Body) == 0 {
		return evalJob{re: re, sign: +1}
	}
	return evalJob{re: re, plan: re.mustPlan(db.ScanLive), sign: +1}
}

// deltaJobs decomposes an existing rule's DRed delta evaluation
//
//	Δ(A₁ ⋈ … ⋈ Aₙ) = Σᵢ A₁ⁿᵉʷ ⋈ … ⋈ Aᵢ₋₁ⁿᵉʷ ⋈ ΔAᵢ ⋈ Aᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Aₙᵒˡᵈ
//
// into one job per (changed positive atom i, delta tuple, sign). The sum
// telescopes over the rule's canonical item order (ruleEval.query); the
// plan seeded at i reads the live state before i and the old state after
// it, in whatever join order the planner chose. Rules with a negated atom
// over a changed relation fall back to retracting every old derivation
// (a full evaluation over the old state) and re-deriving against the new
// one — counts make the pair exact. Rules whose body touches no changed
// relation yield no jobs: this skip is where the incremental-grounding
// speedup comes from.
//
// The jobs — appended to jobs — hold the delta tuples as of this call, so
// a rule never consumes deltas its own bindings produce.
func (g *Grounder) deltaJobs(jobs []evalJob, re *ruleEval, tr *tracker) []evalJob {
	touches, negOnChanged := false, false
	for i, a := range re.query.Atoms {
		if tr.changed(re.atomSeq[i]) {
			touches = true
			negOnChanged = negOnChanged || a.Neg
		}
	}
	if !touches { // includes facts, which never re-fire
		return jobs
	}
	if negOnChanged {
		return append(jobs, evalJob{re: re, plan: re.mustPlan(db.ScanOld), sign: -1}, re.fullJob())
	}
	for i, a := range re.query.Atoms {
		seq := re.atomSeq[i]
		if a.Neg || !tr.changed(seq) {
			continue
		}
		plan, arity := re.mustPlan(i), a.Rel.Arity()
		for k := range tr.added[seq].n {
			jobs = append(jobs, evalJob{re: re, plan: plan, seed: tr.added[seq].row(k, arity), sign: +1})
		}
		for k := range tr.removed[seq].n {
			jobs = append(jobs, evalJob{re: re, plan: plan, seed: tr.removed[seq].row(k, arity), sign: -1})
		}
	}
	return jobs
}

// patchCounts returns how many groundings patchGraph would append to the
// current graph — the visible groundings of the added groups, the touched
// groundings that came back — and how many it would tombstone — the
// touched groundings that left. A patch that would take the graph past the
// compaction threshold is not built: the next Graph call rebuilds from the
// grounder's tables either way, and a rebuild reads nothing a patch writes
// but the weights it appends at their initial values, which it takes from
// the grounder too.
func (g *Grounder) patchCounts(tr *tracker) (appended, tombstoned int) {
	for _, gi := range tr.addedGroups {
		for i := g.groups[gi].first; i >= 0; i = g.gnds[i].next {
			if g.gnds[i].count > 0 {
				appended++
			}
		}
	}
	for _, i := range tr.touched {
		switch gnd := &g.gnds[i]; {
		case gnd.count > 0 && gnd.flatID < 0:
			appended++
		case gnd.count == 0 && gnd.flatID >= 0:
			tombstoned++
		}
	}
	return appended, tombstoned
}

// patchGraph splices the update's ΔV/ΔF into the current graph in place
// through a factor.Patch in O(|Δ|): new variables, weights, and groups are
// appended, toggled groundings of pre-existing groups are appended or
// tombstoned by their recorded flat ids, and evidence changes are applied
// — the pools of untouched variables and factors are never rewritten.
// Nothing of the pre-patch graph survives (the incremental-inference
// engine keeps its own clone of Pr(0)). The commit calls it only when the
// patched graph stays within the compaction threshold (patchCounts); past
// it the graph is left dirty, unpatched, so the next Graph call performs
// an O(V+F) compacting rebuild.
func (g *Grounder) patchGraph(tr *tracker) {
	gr := g.lastGraph
	oldVars := gr.NumVars()
	p := factor.NewPatch(gr)
	for i := oldVars; i < g.NumVars(); i++ {
		p.AddVar()
	}
	for i := gr.NumWeights(); i < len(g.weightKeys); i++ {
		p.AddWeight(g.weightInit[i])
	}
	// Groups created by this update, with their visible groundings.
	// addedGroups is in creation order, i.e. consecutive indices starting
	// at the pre-patch group count.
	for _, gi := range tr.addedGroups {
		gs := &g.groups[gi]
		if pgi := p.AddGroup(gs.head, gs.weight, gs.sem); pgi != gi {
			panic(fmt.Sprintf("ground: patch group index %d does not match grounder group %d", pgi, gi))
		}
		for i := gs.first; i >= 0; i = g.gnds[i].next {
			if gnd := &g.gnds[i]; gnd.count > 0 {
				gnd.flatID = p.AddGrounding(gi, g.gndLits(i))
			} else {
				gnd.flatID = -1
			}
		}
	}
	// Visibility toggles in pre-existing groups, in the deterministic order
	// ApplyUpdateStaged sorted them into, so repeated runs produce
	// identical layouts.
	for _, i := range tr.touched {
		gnd := &g.gnds[i]
		if gnd.count > 0 {
			if gnd.flatID < 0 {
				gnd.flatID = p.AddGrounding(int(gnd.group), g.gndLits(i))
			}
		} else if gnd.flatID >= 0 {
			p.RemoveGrounding(gnd.flatID)
			gnd.flatID = -1
		}
	}
	// Evidence: supervision changes on existing variables plus the labels
	// of variables created by this update.
	applyEv := func(v factor.VarID) {
		if g.evTrue[v]+g.evFalse[v] > 0 {
			p.SetEvidence(v, true, g.evTrue[v] >= g.evFalse[v])
		} else {
			p.SetEvidence(v, false, false)
		}
	}
	for _, v := range tr.evChanged { // ascending, each once
		applyEv(v)
	}
	for i := oldVars; i < g.NumVars(); i++ {
		applyEv(factor.VarID(i))
	}
	p.Apply()
	g.graphDirty = false
}

// sortedRelNames returns a delta map's relation names in sorted order.
func sortedRelNames(m map[string][]db.Tuple) []string {
	out := make([]string, 0, len(m))
	for rel := range m {
		out = append(out, rel)
	}
	slices.Sort(out)
	return out
}
