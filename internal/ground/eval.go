package ground

import (
	"fmt"
	"slices"
	"strconv"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/idtab"
)

// argSrc is one argument of an atom to instantiate from a binding: a
// register of the rule's plans, or a constant (interned when the rule
// compiled) when slot < 0.
type argSrc struct {
	slot int
	val  db.Sym
}

// atomSpec instantiates an atom's row of ids from a plan's register file.
type atomSpec struct {
	seq  uint32 // the relation's position in the program's declarations: its variable-key prefix
	args []argSrc
}

func (a *atomSpec) arg(i int, regs []db.Sym) db.Sym {
	s := a.args[i]
	if s.slot < 0 {
		return s.val
	}
	return regs[s.slot]
}

// appendRow appends the atom's row of ids to dst.
func (a *atomSpec) appendRow(dst []db.Sym, regs []db.Sym) []db.Sym {
	for i := range a.args {
		dst = append(dst, a.arg(i, regs))
	}
	return dst
}

// appendVarKey appends the variable key of the atom's row (its relation's
// declaration position, then the row's ids) to dst.
func (a *atomSpec) appendVarKey(dst []uint32, regs []db.Sym) []uint32 {
	return a.appendRow(append(dst, a.seq), regs)
}

// ruleEval is a compiled rule: its body as a db.Query in canonical item
// order — the body atoms in source order, then, for weighted rules, a
// synthetic *head guard* (a join atom over the head relation that
// restricts groundings to existing candidate tuples: inference rules
// relate existing variables, they do not derive tuples) — plus everything
// applying a binding needs, resolved to register slots once.
type ruleEval struct {
	rule  *datalog.Rule
	idx   int // stable index for weight keys
	syms  *db.Symbols
	query db.Query
	// atomSeq is the declaration position of each of query.Atoms'
	// relations, looked up once here rather than by name on every update.
	atomSeq []uint32
	// plans caches the compiled plan per db.Query.Compile seed (an atom
	// position, db.ScanLive or db.ScanOld), compiled on first use.
	plans map[int]*db.Plan

	head       atomSpec
	lits       []atomSpec // body atoms that become factor literals (weighted rules)
	weightArgs []int      // slots of the weight expression's arguments
	keySlots   []int      // slots of every rule variable: a grounding's identity c̄ (Section 2.4), one id each in its key
	wprefix    string     // weight key up to the tie values
	udf        UDF        // weight UDF, nil for fixed and w(...) weights
}

// toTerm converts a datalog term to a query term.
func toTerm(t datalog.Term) db.Term {
	if t.IsVar {
		return db.V(t.Name)
	}
	return db.C(t.Value)
}

func (g *Grounder) queryAtom(a *datalog.Atom, neg, lead bool) db.QueryAtom {
	terms := make([]db.Term, len(a.Args))
	for i, t := range a.Args {
		terms[i] = toTerm(t)
	}
	return db.QueryAtom{Rel: g.data.Relation(a.Pred), Terms: terms, Neg: neg, Lead: lead}
}

// compileRule validates a rule against the grounder (UDF availability,
// the incremental-grounding restrictions, plannability) and compiles it.
// It registers nothing: a rule that fails here leaves no trace.
//
// For weighted (inference) rules, positive atoms over variable relations
// both join (to range over candidate tuples) and emit factor literals;
// negated atoms over variable relations are rejected (their grounding
// identity would depend on candidate liveness, which breaks exact DRed
// cancellation). For deterministic rules every atom joins — negation over
// a variable relation there is a plain anti-join over the candidate set.
func (g *Grounder) compileRule(r *datalog.Rule, idx int) (*ruleEval, error) {
	re := &ruleEval{rule: r, idx: idx, syms: g.data.Symbols(), plans: make(map[int]*db.Plan)}
	weighted := r.Kind == datalog.KindInference
	if r.Weight.HasWeight && !r.Weight.IsFixed && r.Weight.Func != "w" {
		udf, ok := g.udfs[r.Weight.Func]
		if !ok {
			return nil, fmt.Errorf("ground: rule %s uses unknown UDF %q", r.Head.Pred, r.Weight.Func)
		}
		re.udf = udf
	}
	var litAtoms []*datalog.Atom
	re.query.Atoms = make([]db.QueryAtom, 0, len(r.Body)+1)
	for _, item := range r.Body {
		if item.Cond != nil {
			re.query.Cons = append(re.query.Cons, db.Constraint{Op: item.Cond.Op, L: toTerm(item.Cond.L), R: toTerm(item.Cond.R)})
			continue
		}
		if d := g.prog.Decls[item.Atom.Pred]; weighted && d != nil && d.Variable {
			if item.Neg {
				return nil, fmt.Errorf("ground: rule %s negates variable relation %s in a weighted rule; not supported",
					r.Head.Pred, item.Atom.Pred)
			}
			litAtoms = append(litAtoms, item.Atom)
		}
		re.query.Atoms = append(re.query.Atoms, g.queryAtom(item.Atom, item.Neg, false))
	}
	if weighted && len(r.Body) > 0 {
		re.query.Atoms = append(re.query.Atoms, g.queryAtom(&r.Head, false, true))
	}
	re.atomSeq = make([]uint32, len(re.query.Atoms))
	for i, a := range re.query.Atoms {
		re.atomSeq[i] = g.relSeq[a.Rel.Name()]
	}
	if len(r.Body) > 0 {
		// Every seeded plan schedules the same atoms over the same
		// variables, so the full plan being plannable covers them all.
		if _, err := re.plan(db.ScanLive); err != nil {
			return nil, fmt.Errorf("ground: rule %s: %w", r.Head.Pred, err)
		}
	}

	vars := re.query.Vars()
	slotOf := func(name string) int { return slices.Index(vars, name) }
	spec := func(a *datalog.Atom) atomSpec {
		s := atomSpec{seq: g.relSeq[a.Pred], args: make([]argSrc, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar {
				s.args[i] = argSrc{slot: slotOf(t.Name)}
			} else {
				s.args[i] = argSrc{slot: -1, val: re.syms.Intern(t.Value)}
			}
		}
		return s
	}
	re.head = spec(&r.Head)
	if !weighted {
		return re, nil
	}
	for _, a := range litAtoms {
		re.lits = append(re.lits, spec(a))
	}
	// The key: the head's variables, then those the positive body atoms
	// bind, each once.
	re.keySlots = make([]int, 0, len(vars))
	keyVars := func(a *datalog.Atom) {
		for _, t := range a.Args {
			if s := slotOf(t.Name); t.IsVar && !slices.Contains(re.keySlots, s) {
				re.keySlots = append(re.keySlots, s)
			}
		}
	}
	keyVars(&r.Head)
	for _, item := range r.Body {
		if item.Atom != nil && !item.Neg {
			keyVars(item.Atom)
		}
	}
	re.wprefix = "w:" + strconv.Itoa(idx)
	if w := r.Weight; !w.IsFixed {
		for _, arg := range w.Args {
			re.weightArgs = append(re.weightArgs, slotOf(arg))
		}
		re.wprefix += ":"
		if re.udf != nil {
			re.wprefix += w.Func + ":"
		}
	}
	return re, nil
}

// plan returns (compiling on first use) the rule's plan for one seed.
func (re *ruleEval) plan(seed int) (*db.Plan, error) {
	if p := re.plans[seed]; p != nil {
		return p, nil
	}
	p, err := re.query.Compile(seed)
	if err != nil {
		return nil, err
	}
	re.plans[seed] = p
	return p, nil
}

// mustPlan is plan for rules that passed compileRule, whose plans cannot
// fail to compile.
func (re *ruleEval) mustPlan(seed int) *db.Plan {
	p, err := re.plan(seed)
	if err != nil {
		panic(fmt.Sprintf("ground: rule %s passed compileRule but seed %d does not plan: %v", re.rule.Head.Pred, seed, err))
	}
	return p
}

// tracker accumulates the effects of one grounding pass (full or
// incremental): relation deltas for downstream rules and the ΔV/ΔF
// bookkeeping reported to incremental inference.
type tracker struct {
	// added and removed are the DRed delta lists, per relation (by
	// declaration position): the rows whose visibility the pass toggled on
	// and off. They are kept only when a later rule may evaluate delta
	// terms over them — not on the first update, where every rule is
	// evaluated in full.
	added, removed []deltaRows
	deltas         bool

	newVars     []factor.VarID
	liveToggled []factor.VarID // pre-existing variables whose tuple left or re-entered; repeats allowed
	evChanged   []factor.VarID // variables whose evidence counts moved; repeats allowed
	addedGroups []int          // ascending: groups are append-only
	newWeights  []factor.WeightID
	// touched lists the groundings of pre-existing groups whose visibility
	// toggled, repeats allowed — the grounding-grained ΔF the in-place patch
	// path splices into the flat graph; their groups are the modified ones.
	touched []int32
}

// deltaRows is a delta list: n rows of one relation, back to back in ids.
type deltaRows struct {
	ids []db.Sym
	n   int
}

func (d *deltaRows) add(row []db.Sym) {
	d.ids = append(idtab.Grow(d.ids, len(row)), row...)
	d.n++
}

// row returns row i of a relation of the given arity.
func (d *deltaRows) row(i, arity int) []db.Sym {
	return d.ids[i*arity : (i+1)*arity : (i+1)*arity]
}

func newTracker(nRels int, deltas bool) *tracker {
	tr := &tracker{deltas: deltas}
	if deltas {
		tr.added, tr.removed = make([]deltaRows, nRels), make([]deltaRows, nRels)
	}
	return tr
}

// newGroup reports whether group gi was created by this pass.
func (tr *tracker) newGroup(gi int) bool {
	return len(tr.addedGroups) > 0 && gi >= tr.addedGroups[0]
}

// changed reports whether the pass toggled any tuple of the relation at
// seq.
func (tr *tracker) changed(seq uint32) bool {
	return tr.added[seq].n > 0 || tr.removed[seq].n > 0
}

// applyTupleDelta adds count derivations of a row of ids to the relation
// at seq, maintaining variable liveness, evidence counts, and the delta
// stream. The relation's state before the pass stays readable through
// old-state plan atoms (see db.Relation.BeginPass). row is not retained.
func (g *Grounder) applyTupleDelta(tr *tracker, seq uint32, row []db.Sym, count int) error {
	ri := &g.rels[seq]
	if !ri.rel.InsertRow(row, count) {
		return nil // visibility unchanged: nothing propagates
	}
	visible := count > 0
	if tr.deltas {
		if visible {
			tr.added[seq].add(row)
		} else {
			tr.removed[seq].add(row)
		}
	}
	if ri.variable {
		if visible {
			id, isNew := g.varFor(seq, row)
			if isNew {
				tr.newVars = append(tr.newVars, id)
			} else if !g.live[id] {
				tr.liveToggled = append(tr.liveToggled, id)
			}
			g.live[id] = true
		} else if id, ok := g.varOf(seq, row); ok {
			if g.live[id] {
				tr.liveToggled = append(tr.liveToggled, id)
			}
			g.live[id] = false
		}
	}
	if ri.evidenceOf >= 0 {
		if err := g.applyEvidenceDelta(tr, uint32(ri.evidenceOf), row, visible); err != nil {
			return err
		}
	}
	return nil
}

// applyEvidenceDelta updates per-variable evidence counts when an
// evidence row (base..., label) changes visibility.
func (g *Grounder) applyEvidenceDelta(tr *tracker, base uint32, evRow []db.Sym, nowVisible bool) error {
	label := g.data.Symbols().Text(evRow[len(evRow)-1])
	var isTrue bool
	switch label {
	case "true":
		isTrue = true
	case "false":
		isTrue = false
	default:
		return fmt.Errorf("ground: evidence label %q in %s_Ev must be true or false", label, g.rels[base].rel.Name())
	}
	id, isNew := g.varFor(base, evRow[:len(evRow)-1])
	if isNew {
		tr.newVars = append(tr.newVars, id)
	}
	d := 1
	if !nowVisible {
		d = -1
	}
	if isTrue {
		g.evTrue[id] += d
	} else {
		g.evFalse[id] += d
	}
	tr.evChanged = append(tr.evChanged, id)
	return nil
}

// applyBinding applies one rule binding with the given sign (+1 derive,
// −1 retract). Derivation and supervision rules derive head tuples;
// weighted rules materialize factor groundings over existing candidate
// variables (the head-guard join guarantees the head tuple exists). The
// keys it looks up — a variable's (its relation's declaration position,
// then the row's ids), the binding's (the rule's full binding c̄) and the
// weight's (the rule, then its tie values' text; with the UDF evaluation,
// the expensive part of feature-extraction rules) — are built in the
// grounder's scratch, which every interning copies out of; regs is not
// retained.
func (g *Grounder) applyBinding(re *ruleEval, regs []db.Sym, sign int, tr *tracker) error {
	if re.rule.Kind != datalog.KindInference {
		g.keyIDs = re.head.appendRow(g.keyIDs[:0], regs)
		return g.applyTupleDelta(tr, re.head.seq, g.keyIDs, sign)
	}
	internVar := func(a *atomSpec) factor.VarID {
		g.keyIDs = a.appendVarKey(g.keyIDs[:0], regs)
		id, isNew := g.varFor(g.keyIDs[0], g.keyIDs[1:])
		if isNew {
			tr.newVars = append(tr.newVars, id)
		}
		return id
	}
	headVar := internVar(&re.head)
	winit, learn := 0.0, true
	if w := re.rule.Weight; w.IsFixed {
		winit, learn = w.Fixed, false
	}
	g.keyText = append(g.keyText[:0], re.wprefix...)
	if re.udf != nil {
		g.udfArgs = g.udfArgs[:0]
		for _, s := range re.weightArgs {
			g.udfArgs = append(g.udfArgs, re.syms.Text(regs[s]))
		}
		g.keyText = append(g.keyText, re.udf(g.udfArgs)...)
	} else {
		for i, s := range re.weightArgs {
			if i > 0 {
				g.keyText = append(g.keyText, 0x1f)
			}
			g.keyText = append(g.keyText, re.syms.Text(regs[s])...)
		}
	}
	wid, isNewW := g.weightFor(g.keyText, winit, learn)
	if isNewW {
		tr.newWeights = append(tr.newWeights, wid)
	}
	gk := groupKey{int32(re.idx), headVar, wid}
	gh := hashGroup(gk)
	slot, ok := g.findGroup(gk, gh)
	var gi int32
	if ok {
		gi = g.groupTab.Pos(slot)
	} else {
		gi = int32(g.addGroup(slot, gh, gk, g.prog.SemOf(re.rule)))
		tr.addedGroups = append(tr.addedGroups, int(gi))
	}
	// A grounding seen before already has its literals (and their vars).
	g.keyIDs = g.keyIDs[:0]
	for _, s := range re.keySlots {
		g.keyIDs = append(g.keyIDs, regs[s])
	}
	bh := idtab.HashAfter(uint32(gi), g.keyIDs)
	slot, ok = g.findGnd(gi, g.keyIDs, bh)
	var gnd int32
	if ok {
		gnd = g.gndTab.Pos(slot)
	} else {
		gnd = g.addGnd(slot, bh, gi, g.keyIDs)
		for k := range re.lits {
			g.lits = append(idtab.Grow(g.lits, 1), factor.Literal{Var: internVar(&re.lits[k])})
		}
	}
	// Groups created earlier in this same pass count as added, not
	// modified: they do not exist in the pre-update graph, so reporting
	// them in ModifiedGroups would leak an out-of-range index into
	// ChangedGroupsOld.
	if g.addCount(gnd, sign) && !tr.newGroup(int(gi)) {
		tr.touched = append(tr.touched, gnd)
	}
	g.graphDirty = true
	return nil
}

// Ground performs the initial grounding: the first update, from the empty
// database, with the tuples LoadBase staged as its inserts. Like any update
// that finds the grounder at version 0, it evaluates every rule in full
// (see ApplyUpdateStaged); there is no separate from-scratch path. Call it
// once: a grounder that has grounded refuses it, and takes ApplyUpdate.
func (g *Grounder) Ground() error {
	if g.version > 0 {
		return fmt.Errorf("ground: Ground on a grounder at version %d; use ApplyUpdate", g.version)
	}
	_, err := g.ApplyUpdate(Update{})
	return err
}
