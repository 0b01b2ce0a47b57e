package db

import (
	"fmt"
	"slices"
	"strconv"
)

// Term is one argument position of a query atom: a named variable or a
// constant value.
type Term struct {
	IsVar bool
	Var   string // variable name when IsVar
	Const Value  // constant otherwise
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C returns a constant term.
func C(v Value) Term { return Term{Const: v} }

// QueryAtom is one conjunct of a conjunctive query: a relation and a term
// pattern. A negated atom is an anti-join guard — the conjunction only
// holds where no matching tuple exists. Lead marks the atom an unseeded
// plan evaluates first (grounding's head guard: the candidate set is the
// tightest restriction a weighted rule has).
type QueryAtom struct {
	Rel   *Relation
	Terms []Term
	Neg   bool
	Lead  bool
}

// Constraint is a comparison between two terms. Supported ops: "=", "!=",
// "<", "<=" (numeric when both sides parse as integers, lexicographic
// otherwise).
type Constraint struct {
	Op   string
	L, R Term
}

// Query is a conjunction of atoms and constraints. The atom order is the
// query's *canonical* order: it numbers the variables and defines which
// side of a seed reads which state (see Compile), but not the evaluation
// order, which the planner chooses.
type Query struct {
	Atoms []QueryAtom
	Cons  []Constraint
}

// Unseeded plan modes for Compile.
const (
	ScanLive = -1 // every atom reads the live state
	ScanOld  = -2 // every atom reads the state as of BeginPass
)

// Vars returns the query's variables in slot order: first occurrence over
// the atoms in canonical order, then the constraints. The numbering is a
// function of the query alone, so every plan compiled from it shares one
// register layout.
func (q *Query) Vars() []string {
	n := 2 * len(q.Cons)
	for _, a := range q.Atoms {
		n += len(a.Terms)
	}
	out := make([]string, 0, n)
	add := func(t Term) {
		if t.IsVar && !slices.Contains(out, t.Var) {
			out = append(out, t.Var)
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Terms {
			add(t)
		}
	}
	for _, c := range q.Cons {
		add(c.L)
		add(c.R)
	}
	return out
}

// src is where a plan step reads a value: a register, or a constant when
// slot < 0.
type src struct {
	slot int
	val  Sym
}

func (s src) get(regs []Sym) Sym {
	if s.slot < 0 {
		return s.val
	}
	return regs[s.slot]
}

// colSlot pairs a tuple column with a register.
type colSlot struct{ col, slot int }

// colVal pairs a tuple column with a constant.
type colVal struct {
	col int
	val Sym
}

// matcher checks a row against an atom's term pattern and loads its free
// variables: consts are (column, value) checks (seed rows only —
// elsewhere constants are part of the probe key), bind loads a column
// into a register, and same checks a column against a register loaded
// earlier from the same row (a variable repeated within the atom).
type matcher struct {
	consts []colVal
	bind   []colSlot
	same   []colSlot
}

func (m *matcher) match(t []Sym, regs []Sym) bool {
	for _, c := range m.consts {
		if t[c.col] != c.val {
			return false
		}
	}
	for _, b := range m.bind {
		regs[b.slot] = t[b.col]
	}
	for _, s := range m.same {
		if t[s.col] != regs[s.slot] {
			return false
		}
	}
	return true
}

type stepKind uint8

const (
	stepScan   stepKind = iota // enumerate a bucket (or the whole relation) and bind free columns
	stepExists                 // fully bound positive atom: one row lookup
	stepAnti                   // negated atom: continue only when no visible row matches
	stepCmp                    // comparison between two bound terms
)

type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
)

var cmpOps = map[string]cmpOp{"=": opEq, "!=": opNe, "<": opLt, "<=": opLe}

// step is one instruction of a plan.
type step struct {
	kind stepKind
	rel  *Relation
	old  bool   // read the state as of BeginPass instead of the live one
	idx  *Index // stepScan: nil scans the whole relation
	key  []src  // probe key sources, in index column order (all columns for exists/anti)
	m    matcher
	op   cmpOp
	l, r src
}

// Plan is a compiled query: variables numbered into a register file of
// ids, a static join order, and per atom the precomputed probe-key
// sources, free-column loads and resolved index handle. Constants are ids
// interned when the plan compiles. A plan is immutable; running it only
// reads, through the Exec it is given.
type Plan struct {
	syms   *Symbols
	nslots int
	seed   *matcher // binds the seed row; nil for unseeded plans
	steps  []step
	order  []int // atom indexes in evaluation order (seed first)
}

// Compile plans the query for one seed position. seed >= 0 names a
// positive atom that Run binds to a given row instead of scanning —
// one term of the DRed telescoping sum: atoms before it in canonical
// order read the live state, atoms after it the state as of BeginPass.
// seed = ScanLive or ScanOld plans a full evaluation over one state.
//
// Join order is static: the seed — or, unseeded, the Lead atom — first,
// then repeatedly the positive atom with the most bound columns
// (constants included), ties to the earlier canonical position. Negated
// atoms and constraints run at the earliest point all their variables
// are bound; one that never gets there makes the query unplannable,
// which is the only error besides an unknown comparison operator and the
// two preconditions: a query has atoms, and their relations share one
// symbol table, into which Compile interns the query's constants.
func (q *Query) Compile(seed int) (*Plan, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("db: query without atoms")
	}
	syms := q.Atoms[0].Rel.syms
	for _, a := range q.Atoms {
		if a.Rel.syms != syms {
			return nil, fmt.Errorf("db: relations %s and %s have different symbol tables", q.Atoms[0].Rel.name, a.Rel.name)
		}
	}
	// Terms resolve to register slots (or interned constants) once; the
	// planner below works on slices over the slots.
	vars := q.Vars()
	resolve := func(t Term) src {
		if !t.IsVar {
			return src{slot: -1, val: syms.Intern(t.Const)}
		}
		return src{slot: slices.Index(vars, t.Var)}
	}
	// The atoms' sources, the steps' probe keys and their matchers' loads
	// are cut from one slab each, as long as the atoms' terms: each atom is
	// patterned once, and each of its terms is a key source or a load.
	nTerms := 0
	for _, a := range q.Atoms {
		nTerms += len(a.Terms)
	}
	termSrcs, keys, loads := make([]src, 0, nTerms), make([]src, 0, nTerms), make([]colSlot, 0, nTerms)
	atomSrcs := make([][]src, len(q.Atoms))
	for i, a := range q.Atoms {
		for _, t := range a.Terms {
			termSrcs = append(termSrcs, resolve(t))
		}
		atomSrcs[i] = termSrcs[len(termSrcs)-len(a.Terms):]
	}
	p := &Plan{syms: syms, nslots: len(vars), steps: make([]step, 0, len(q.Atoms)+len(q.Cons)), order: make([]int, 0, len(q.Atoms))}
	bound := make([]bool, len(vars))
	isBound := func(s src) bool { return s.slot < 0 || bound[s.slot] }
	// loaded marks the slots the atom being patterned loads itself, by
	// pattern call: no set to clear or allocate per call.
	loaded := make([]int, len(vars))
	calls := 0
	// pattern compiles an atom's terms against the current bound set: bound
	// positions become probe-key sources, the rest matcher loads/checks.
	pattern := func(srcs []src) (keyCols []int, key []src, m matcher) {
		calls++
		k, b := len(keys), len(loads)
		for col, s := range srcs {
			if isBound(s) {
				keyCols = append(keyCols, col)
				keys = append(keys, s)
				continue
			}
			if loaded[s.slot] == calls {
				m.same = append(m.same, colSlot{col, s.slot})
			} else {
				loaded[s.slot] = calls
				loads = append(loads, colSlot{col, s.slot})
			}
		}
		m.bind = loads[b:len(loads):len(loads)]
		return keyCols, keys[k:len(keys):len(keys)], m
	}
	// boundCols counts an atom's bound positions, as pattern would.
	boundCols := func(srcs []src) int {
		n := 0
		for _, s := range srcs {
			if isBound(s) {
				n++
			}
		}
		return n
	}
	bindAll := func(m *matcher) {
		for _, b := range m.bind {
			bound[b.slot] = true
		}
	}

	doneAtom := make([]bool, len(q.Atoms))
	doneCon := make([]bool, len(q.Cons))
	if seed >= 0 {
		if seed >= len(q.Atoms) || q.Atoms[seed].Neg {
			return nil, fmt.Errorf("db: seed position %d is not a positive atom", seed)
		}
		// The seed row is matched whole, so its key columns (nothing is
		// bound yet: the atom's constants) become checks instead.
		keyCols, key, m := pattern(atomSrcs[seed])
		for i, col := range keyCols {
			m.consts = append(m.consts, colVal{col, key[i].val})
		}
		bindAll(&m)
		p.seed = &m
		p.order = append(p.order, seed)
		doneAtom[seed] = true
	}
	readsOld := func(i int) bool { return seed == ScanOld || (seed >= 0 && i > seed) }

	// flush schedules every constraint, then every negated atom, whose
	// variables are all bound by now.
	flush := func() error {
		for i, c := range q.Cons {
			if doneCon[i] {
				continue
			}
			l, r := resolve(c.L), resolve(c.R)
			if !isBound(l) || !isBound(r) {
				continue
			}
			op, ok := cmpOps[c.Op]
			if !ok {
				return fmt.Errorf("db: unsupported constraint op %q", c.Op)
			}
			p.steps = append(p.steps, step{kind: stepCmp, op: op, l: l, r: r})
			doneCon[i] = true
		}
		for i, a := range q.Atoms {
			if doneAtom[i] || !a.Neg || boundCols(atomSrcs[i]) != len(a.Terms) {
				continue
			}
			_, key, _ := pattern(atomSrcs[i])
			p.steps = append(p.steps, step{kind: stepAnti, rel: a.Rel, old: readsOld(i), key: key})
			p.order = append(p.order, i)
			doneAtom[i] = true
		}
		return nil
	}
	if err := flush(); err != nil {
		return nil, err
	}
	for first := true; ; first = false {
		best, bestBound := -1, -1
		for i, a := range q.Atoms {
			if doneAtom[i] || a.Neg {
				continue
			}
			if first && seed < 0 && a.Lead {
				best = i
				break
			}
			if n := boundCols(atomSrcs[i]); n > bestBound {
				best, bestBound = i, n
			}
		}
		if best < 0 {
			break
		}
		a := q.Atoms[best]
		keyCols, key, m := pattern(atomSrcs[best])
		st := step{kind: stepScan, rel: a.Rel, old: readsOld(best), key: key, m: m}
		switch {
		case len(keyCols) == len(a.Terms):
			st.kind = stepExists
		case len(keyCols) > 0:
			st.idx = a.Rel.IndexOn(keyCols...)
		}
		bindAll(&m)
		p.steps = append(p.steps, st)
		p.order = append(p.order, best)
		doneAtom[best] = true
		if err := flush(); err != nil {
			return nil, err
		}
	}
	for i, a := range q.Atoms {
		if !doneAtom[i] {
			for col, t := range a.Terms {
				if !isBound(atomSrcs[i][col]) {
					return nil, fmt.Errorf("db: negated atom over %s has unbound variable %q", a.Rel.Name(), t.Var)
				}
			}
		}
	}
	for i, c := range q.Cons {
		if !doneCon[i] {
			return nil, fmt.Errorf("db: constraint %v %s %v has unbound variable", c.L, c.Op, c.R)
		}
	}
	return p, nil
}

// Exec is the reusable state of plan execution: the register file and the
// probe-key buffer. The zero value is ready to use.
type Exec struct {
	regs []Sym
	key  []Sym
}

// Run enumerates every binding of the plan and calls emit with the
// register file of ids, indexed by the slot order of Query.Vars. The
// slice is reused across calls — copy out what must be retained.
// Returning false from emit stops the enumeration. seed is the row of ids
// bound at the plan's seed position (ignored by unseeded plans). The
// enumeration order is a pure function of the plan and of the relations'
// contents and insertion order.
func (p *Plan) Run(x *Exec, seed []Sym, emit func(regs []Sym) bool) {
	if cap(x.regs) < p.nslots {
		x.regs = make([]Sym, p.nslots)
	}
	x.regs = x.regs[:p.nslots]
	if p.seed != nil && !p.seed.match(seed, x.regs) {
		return
	}
	x.run(p, p.steps, emit)
}

// probeKey builds a step's probe key in the reused buffer.
func (x *Exec) probeKey(key []src) []Sym {
	buf := x.key[:0]
	for _, s := range key {
		buf = append(buf, s.get(x.regs))
	}
	x.key = buf
	return buf
}

// run executes steps over the current registers; false means emit asked
// to stop.
func (x *Exec) run(p *Plan, steps []step, emit func([]Sym) bool) bool {
	if len(steps) == 0 {
		return emit(x.regs)
	}
	st, rest := &steps[0], steps[1:]
	rel := st.rel
	switch st.kind {
	case stepCmp:
		if !p.compare(st.op, st.l.get(x.regs), st.r.get(x.regs)) {
			return true
		}
		return x.run(p, rest, emit)
	case stepExists, stepAnti:
		pos := rel.find(x.probeKey(st.key))
		found := pos >= 0 && rel.visible(pos, st.old)
		if found == (st.kind == stepAnti) {
			return true
		}
		return x.run(p, rest, emit)
	}
	if st.idx == nil {
		for pos := range int32(rel.stored()) {
			if rel.visible(pos, st.old) && st.m.match(rel.row(pos), x.regs) && !x.run(p, rest, emit) {
				return false
			}
		}
		return true
	}
	for pos := st.idx.first(x.probeKey(st.key)); pos >= 0; pos = st.idx.next[pos] {
		if rel.visible(pos, st.old) && st.m.match(rel.row(pos), x.regs) && !x.run(p, rest, emit) {
			return false
		}
	}
	return true
}

// compare evaluates a constraint: = and != on ids (one id per value), <
// and <= on the values' text — numeric when both sides parse as integers,
// lexicographic otherwise.
func (p *Plan) compare(op cmpOp, l, r Sym) bool {
	switch op {
	case opEq:
		return l == r
	case opNe:
		return l != r
	}
	ls, rs := p.syms.Text(l), p.syms.Text(r)
	li, lerr := strconv.Atoi(ls)
	ri, rerr := strconv.Atoi(rs)
	var less, eq bool
	if lerr == nil && rerr == nil {
		less, eq = li < ri, li == ri
	} else {
		less, eq = ls < rs, ls == rs
	}
	return less || (op == opLe && eq)
}
