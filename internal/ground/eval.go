package ground

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
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
	pred string
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

// appendVarKey appends the variable key (the package's appendVarKey) of
// the atom's row without instantiating the row.
func (a *atomSpec) appendVarKey(buf []byte, regs []db.Sym) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, a.seq)
	for i := range a.args {
		buf = binary.LittleEndian.AppendUint32(buf, a.arg(i, regs))
	}
	return buf
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
	// plans caches the compiled plan per db.Query.Compile seed (an atom
	// position, db.ScanLive or db.ScanOld). Filled on the driver goroutine
	// only: workers receive resolved plans in their jobs.
	plans map[int]*db.Plan

	head       atomSpec
	lits       []atomSpec // body atoms that become factor literals (weighted rules)
	weightArgs []int      // slots of the weight expression's arguments
	keySlots   []int      // slots of every rule variable: a grounding's identity c̄ (Section 2.4), 4 bytes each in its key
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
	if len(r.Body) > 0 {
		// Every seeded plan schedules the same atoms over the same
		// variables, so the full plan being plannable covers them all.
		if _, err := re.plan(db.ScanLive); err != nil {
			return nil, fmt.Errorf("ground: rule %s: %w", r.Head.Pred, err)
		}
	}

	slotOf := map[string]int{}
	for i, v := range re.query.Vars() {
		slotOf[v] = i
	}
	spec := func(a *datalog.Atom) atomSpec {
		s := atomSpec{pred: a.Pred, seq: g.relSeq[a.Pred], args: make([]argSrc, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar {
				s.args[i] = argSrc{slot: slotOf[t.Name]}
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
	seen := map[string]bool{}
	for _, v := range append(r.Head.Vars(), r.BodyVars()...) {
		if !seen[v] {
			seen[v] = true
			re.keySlots = append(re.keySlots, slotOf[v])
		}
	}
	re.wprefix = "w:" + strconv.Itoa(idx)
	if w := r.Weight; !w.IsFixed {
		for _, arg := range w.Args {
			re.weightArgs = append(re.weightArgs, slotOf[arg])
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
	added   map[string][][]db.Sym
	removed map[string][][]db.Sym
	rows    []db.Sym // the slab the delta lists' rows are cut from

	newVars        []factor.VarID
	liveToggled    []factor.VarID // pre-existing variables whose tuple left or re-entered; repeats allowed
	evChanged      map[factor.VarID]bool
	modifiedGroups map[int]bool
	addedGroups    []int // ascending: groups are append-only
	newWeights     []factor.WeightID
	// touched records, per pre-existing group, the groundings whose
	// visibility toggled — the grounding-grained ΔF the in-place patch path
	// splices into the flat graph.
	touched map[int]map[*gndState]bool
}

func newTracker() *tracker {
	return &tracker{
		added:          make(map[string][][]db.Sym),
		removed:        make(map[string][][]db.Sym),
		evChanged:      make(map[factor.VarID]bool),
		modifiedGroups: make(map[int]bool),
		touched:        make(map[int]map[*gndState]bool),
	}
}

// newGroup reports whether group gi was created by this pass.
func (tr *tracker) newGroup(gi int) bool {
	return len(tr.addedGroups) > 0 && gi >= tr.addedGroups[0]
}

// changed reports whether the pass toggled any tuple of the relation.
func (tr *tracker) changed(name string) bool {
	return len(tr.added[name]) > 0 || len(tr.removed[name]) > 0
}

// touch records a grounding visibility toggle in a pre-existing group.
func (tr *tracker) touch(gi int, gnd *gndState) {
	if tr.touched[gi] == nil {
		tr.touched[gi] = make(map[*gndState]bool)
	}
	tr.touched[gi][gnd] = true
}

// keep returns a copy of row the pass's delta lists may hold.
func (tr *tracker) keep(row []db.Sym) []db.Sym {
	kept := cut(&tr.rows, len(row))
	copy(kept, row)
	return kept
}

// applyTupleDelta adds count derivations of a row of ids to rel,
// maintaining variable liveness, evidence counts, and the delta stream.
// The relation's state before the pass stays readable through old-state
// plan atoms (see db.Relation.BeginPass). row is not retained.
func (g *Grounder) applyTupleDelta(tr *tracker, relName string, row []db.Sym, count int) error {
	r := g.data.Relation(relName)
	if r == nil {
		return fmt.Errorf("ground: unknown relation %s", relName)
	}
	if !r.InsertRow(row, count) {
		return nil // visibility unchanged: nothing propagates
	}
	row = tr.keep(row)
	visible := count > 0
	if visible {
		tr.added[relName] = append(tr.added[relName], row)
	} else {
		tr.removed[relName] = append(tr.removed[relName], row)
	}
	decl := g.prog.Decls[relName]
	if decl != nil && decl.Variable {
		if visible {
			id, isNew := g.varFor(relName, row)
			if isNew {
				tr.newVars = append(tr.newVars, id)
			} else if !g.live[id] {
				tr.liveToggled = append(tr.liveToggled, id)
			}
			g.live[id] = true
		} else if id, ok := g.varOf(relName, row); ok {
			if g.live[id] {
				tr.liveToggled = append(tr.liveToggled, id)
			}
			g.live[id] = false
		}
	}
	if base, isEv := datalog.EvidenceTarget(relName); isEv && g.prog.Decls[base] != nil {
		if err := g.applyEvidenceDelta(tr, base, row, visible); err != nil {
			return err
		}
	}
	return nil
}

// applyEvidenceDelta updates per-variable evidence counts when an
// evidence row (base..., label) changes visibility.
func (g *Grounder) applyEvidenceDelta(tr *tracker, baseRel string, evRow []db.Sym, nowVisible bool) error {
	label := g.data.Symbols().Text(evRow[len(evRow)-1])
	var isTrue bool
	switch label {
	case "true":
		isTrue = true
	case "false":
		isTrue = false
	default:
		return fmt.Errorf("ground: evidence label %q in %s_Ev must be true or false", label, baseRel)
	}
	id, isNew := g.varFor(baseRel, evRow[:len(evRow)-1])
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
	tr.evChanged[id] = true
	return nil
}

// keyArena holds the keys precompute derives, back to back in buf; ends
// records where each key ends, so key i starts where key i−1 ended. rows
// holds the instantiated heads of derivation rules. The driver resets its
// one arena per binding; a parallel job keeps its own for as long as its
// bindings wait to be applied. args is the UDF argument scratch.
type keyArena struct {
	buf  []byte
	ends []int32
	rows []db.Sym
	args []string
}

func (a *keyArena) reset() { a.buf, a.ends, a.rows = a.buf[:0], a.ends[:0], a.rows[:0] }

// end closes the key appended to buf since the previous one.
func (a *keyArena) end() { a.ends = append(a.ends, int32(len(a.buf))) }

// key returns key i.
func (a *keyArena) key(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = a.ends[i-1]
	}
	return a.buf[start:a.ends[i]]
}

// bindingPre holds the pure derivations of one rule binding — everything
// applying it needs that does not touch mutable grounder state — in its
// arena, from at on. For a derivation or supervision rule: the
// instantiated head, rows[at:at+arity]. For a weighted rule: keys at,
// at+1, … — the head's variable key, the weight key (with the UDF
// evaluation, the expensive part of feature-extraction rules), the
// binding key, then one variable key per literal; applyPre allocates a
// string only for what it interns. Variable and binding keys are
// fixed-width ids, so no key carries a value's text. Workers compute
// bindings on the parallel path, applyBinding on the sequential one; each
// key is a pure function of (rule, binding), which keeps the two
// bit-identical.
type bindingPre struct {
	at int
}

// precompute derives a binding's pure apply inputs from a plan's register
// file into a. Safe to call from evaluation workers, each with its own
// arena: it reads only immutable rule state, the symbol table (read-only
// while workers run) and the (pure) UDF registry; regs is not retained.
func (re *ruleEval) precompute(regs []db.Sym, a *keyArena) bindingPre {
	if re.rule.Kind != datalog.KindInference {
		p := bindingPre{at: len(a.rows)}
		a.rows = re.head.appendRow(a.rows, regs)
		return p
	}
	p := bindingPre{at: len(a.ends)}
	a.buf = re.head.appendVarKey(a.buf, regs)
	a.end()
	// Weight key: the rule, then its tie values' text.
	a.buf = append(a.buf, re.wprefix...)
	if re.udf != nil {
		a.args = a.args[:0]
		for _, s := range re.weightArgs {
			a.args = append(a.args, re.syms.Text(regs[s]))
		}
		a.buf = append(a.buf, re.udf(a.args)...)
	} else {
		for i, s := range re.weightArgs {
			if i > 0 {
				a.buf = append(a.buf, 0x1f)
			}
			a.buf = append(a.buf, re.syms.Text(regs[s])...)
		}
	}
	a.end()
	// Binding key: the rule's full binding c̄.
	for _, s := range re.keySlots {
		a.buf = binary.LittleEndian.AppendUint32(a.buf, regs[s])
	}
	a.end()
	for k := range re.lits {
		a.buf = re.lits[k].appendVarKey(a.buf, regs)
		a.end()
	}
	return p
}

// applyBinding applies one rule binding with the given sign (+1 derive,
// −1 retract). Derivation and supervision rules derive head tuples;
// weighted rules materialize factor groundings over existing candidate
// variables (the head-guard join guarantees the head tuple exists).
func (g *Grounder) applyBinding(re *ruleEval, regs []db.Sym, sign int, tr *tracker) error {
	g.keys.reset()
	p := re.precompute(regs, &g.keys)
	return g.applyPre(re, &p, &g.keys, sign, tr)
}

// applyPre applies one precomputed rule binding, whose keys are in a: all
// remaining work is the stateful part — relation deltas,
// variable/weight/group interning, grounding counts — and must run on the
// driver goroutine.
func (g *Grounder) applyPre(re *ruleEval, p *bindingPre, a *keyArena, sign int, tr *tracker) error {
	if re.rule.Kind != datalog.KindInference {
		return g.applyTupleDelta(tr, re.head.pred, a.rows[p.at:p.at+len(re.head.args)], sign)
	}
	// Weighted rule: materialize the grounding over the candidate the guard
	// join found visible.
	internVar := func(rel string, key []byte) factor.VarID {
		id, isNew := g.varForKey(rel, key)
		if isNew {
			tr.newVars = append(tr.newVars, id)
		}
		return id
	}
	headVar := internVar(re.head.pred, a.key(p.at))
	winit, learn := 0.0, true
	if w := re.rule.Weight; w.IsFixed {
		winit, learn = w.Fixed, false
	}
	wid, isNewW := g.weightFor(a.key(p.at+1), winit, learn)
	if isNewW {
		tr.newWeights = append(tr.newWeights, wid)
	}
	gk := groupKey{int32(re.idx), headVar, wid}
	gi, ok := g.groupIdx[gk]
	if !ok {
		gi = len(g.groups)
		g.addGroup(gk, g.prog.SemOf(re.rule))
		tr.addedGroups = append(tr.addedGroups, gi)
	}
	// A grounding seen before already has its literals (and their vars).
	gs, bkey := g.groups[gi], a.key(p.at+2)
	gnd := gs.find(bkey)
	if gnd == nil {
		gnd = &cut(&g.slab.gnds, 1)[0]
		*gnd = gndState{key: string(bkey), flatID: -1}
		if len(re.lits) > 0 {
			gnd.lits = cut(&g.slab.lits, len(re.lits))
			for k := range re.lits {
				gnd.lits[k] = factor.Literal{Var: internVar(re.lits[k].pred, a.key(p.at+3+k))}
			}
		}
		gs.add(gnd)
	}
	// Groups created earlier in this same pass count as added, not
	// modified: they do not exist in the pre-update graph, so reporting
	// them in ModifiedGroups would leak an out-of-range index into
	// ChangedGroupsOld.
	if g.addCount(gs, gnd, sign) && !tr.newGroup(gi) {
		tr.modifiedGroups[gi] = true
		tr.touch(gi, gnd)
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
