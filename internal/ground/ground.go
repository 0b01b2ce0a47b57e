// Package ground evaluates DeepDive programs into factor graphs — the
// grounding phase of the paper (Sections 2.5 and 3.1). It owns the
// relational database, evaluates deterministic (candidate/supervision)
// rules with counted derivations, materializes weighted rules into factor
// groups, and — the paper's first contribution — performs *incremental*
// grounding: given inserted/deleted base tuples and new rules, it derives
// the modified variables ΔV and factors ΔF with DRed-style delta
// evaluation instead of re-running every join.
//
// Variable ids and group indexes are stable across updates (append-only),
// so the graph before an update and the graph after it are directly
// comparable — which is what the incremental-inference strategies in
// package inc rely on.
package ground

import (
	"encoding/binary"
	"fmt"
	"sort"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
)

// UDF is a user-defined function used in weight expressions: it maps the
// bound argument values to a tie key (rule FE1's phrase(...) in the
// paper). UDFs must be pure. args is valid only during the call: the
// grounder reuses the slice for the next binding (its strings are the
// symbol table's, resolved without a copy).
type UDF func(args []string) string

// UDFRegistry names the UDFs available to a program.
type UDFRegistry map[string]UDF

// appendVarKey appends the variable-map key for a row of a variable
// relation: the relation's declaration position, then the row's ids, each
// a little-endian uint32. The key is fixed-width for a relation and holds
// no value's text.
func appendVarKey(buf []byte, seq uint32, row []db.Sym) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	for _, id := range row {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

// varInfo records which tuple a VarID stands for.
type varInfo struct {
	rel string
	key string // its variable key (appendVarKey)
}

// appendRow appends the ids of the variable's tuple, decoded from its
// key, to dst.
func (v varInfo) appendRow(dst []db.Sym) []db.Sym {
	for i := 4; i+4 <= len(v.key); i += 4 {
		dst = append(dst, le32(v.key[i:]))
	}
	return dst
}

// le32 decodes a little-endian uint32 from the head of a key.
func le32(k string) uint32 {
	return uint32(k[0]) | uint32(k[1])<<8 | uint32(k[2])<<16 | uint32(k[3])<<24
}

// gndState is one grounding of a group with its derivation count. flatID
// is the grounding's index in the flat pool of the grounder's current
// graph when the grounding is visible there, -1 otherwise — the handle
// the in-place patch path uses to tombstone retracted groundings.
type gndState struct {
	key    string // the binding's key (4 bytes per rule variable), unique within the group
	lits   []factor.Literal
	count  int
	flatID int32
}

// groupState accumulates the groundings of one grounded rule instance
// γ = (rule, head binding, weight binding), interned — and persisted — by
// its groupKey. Records are cut from the grounder's slabs, and the
// first grounding pointer sits in one, so a group of one grounding — most
// of them — costs no object of its own.
type groupState struct {
	rule   int32 // ruleEval.idx
	head   factor.VarID
	weight factor.WeightID
	sem    factor.Semantics
	gnds   []*gndState          // in creation order; one[:0] when empty
	one    [1]*gndState         // backs gnds until a second grounding arrives
	byKey  map[string]*gndState // nil while a scan of gnds is as fast
}

// groupKey identifies a group: the rule, its head variable and the weight.
type groupKey struct {
	rule   int32
	head   factor.VarID
	weight factor.WeightID
}

// slabs are the chunks group, grounding and literal records and the
// grounding lists of groups are cut from — by the live grounder and by
// RestoreSnapshot alike. One object per group, grounding and literal list
// would be most of what a grounder gives the collector to walk.
type slabs struct {
	groups []groupState
	gnds   []gndState
	order  []*gndState
	lits   []factor.Literal
}

const slabChunk = 1024

// cut returns n zeroed elements cut from slab, starting a new chunk when
// the current one is short. The result's capacity is n: appending to it
// never reaches a neighbour.
func cut[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(slabChunk, n))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// A group of up to smallGroup groundings is searched by scanning gnds. Most
// groups hold one grounding, and a map each would be most of the grounding
// tables' memory.
const smallGroup = 8

// find returns the grounding of gs with the given key, or nil.
func (gs *groupState) find(key []byte) *gndState {
	if gs.byKey != nil {
		return gs.byKey[string(key)]
	}
	for _, gnd := range gs.gnds {
		if gnd.key == string(key) {
			return gnd
		}
	}
	return nil
}

// add appends a grounding whose key gs does not hold yet.
func (gs *groupState) add(gnd *gndState) {
	gs.gnds = append(gs.gnds, gnd)
	if gs.byKey != nil {
		gs.byKey[gnd.key] = gnd
	} else if len(gs.gnds) > smallGroup {
		gs.byKey = make(map[string]*gndState, 2*len(gs.gnds))
		for _, o := range gs.gnds {
			gs.byKey[o.key] = o
		}
	}
}

// Grounder holds the database and all grounding state for one program.
type Grounder struct {
	prog   *datalog.Program
	udfs   UDFRegistry
	data   *db.Database
	relSeq map[string]uint32 // relation → its declaration position (variable-key prefix)

	topo        []string               // relation evaluation order (derivation pipeline)
	rulesByHead map[string][]*ruleEval // derivation & supervision rules
	weighted    []*ruleEval            // inference (weighted) rules, in order
	derived     map[string]bool        // heads of derivation/supervision rules
	nextRuleIdx int

	vars    []varInfo
	varIdx  map[string]factor.VarID
	live    []bool
	evTrue  []int // per var: count of true evidence derivations
	evFalse []int

	weightKeys  []string
	weightInit  []float64
	weightLearn []bool
	weightIdx   map[string]factor.WeightID

	groups      []*groupState
	groupIdx    map[groupKey]int
	nGroundings int // visible groundings across groups, kept at the count transitions
	slab        slabs

	// exec is the driver goroutine's plan-execution state (the sequential
	// path); parallel workers bring their own. jobs is the driver's job
	// list, refilled per rule (sequential path) or per level (parallel
	// path): one job per rule × changed atom × delta tuple adds up to
	// hundreds of kilobytes per document update if built afresh. keys is the
	// driver's key arena, reset per binding.
	exec db.Exec
	jobs []evalJob
	keys keyArena

	graphDirty bool
	lastGraph  *factor.Graph

	// version counts grounding generations: 0 before the first update (the
	// initial Ground), then +1 per update. Serving snapshots pin themselves
	// to (version, graph epoch) so a reader can tell which update generation
	// it observes.
	version uint64
	// loaded holds the base tuples LoadBase staged: the first update's
	// inserts.
	loaded map[string][]db.Tuple

	// In-place update state: when enabled (the default), ApplyUpdate
	// splices the delta into the current graph through a factor.Patch in
	// O(|Δ|) instead of leaving it dirty for an O(V+F) rebuild, falling
	// back to a compacting rebuild when fragmentation crosses
	// compactThresh.
	inPlace       bool
	compactThresh float64

	// par is the grounding worker count (see SetParallelism):
	// <= 1 sequential, n > 1 shards DRed join evaluation across n
	// workers, negative one worker per core.
	par int
}

// DefaultCompactionThreshold is the fragmentation ratio (tombstoned plus
// overflow groundings over the pool size) at which the in-place update
// path schedules a compacting rebuild.
const DefaultCompactionThreshold = 0.25

// SetInPlaceUpdates toggles O(Δ)-cost in-place graph patching on
// ApplyUpdate. On by default (the patch path has soaked through the
// differential harnesses); pass false to select the rebuild lesion
// configuration, where every update marks the graph dirty and the next
// Graph call rebuilds the flat pools from scratch.
func (g *Grounder) SetInPlaceUpdates(on bool) { g.inPlace = on }

// SetParallelism selects the worker count for grounding — the initial
// Ground and every update, which take the same path: <= 1 keeps the
// sequential path, n > 1 fans the per-rule, per-delta-seed join
// evaluations of each pipeline stage out across n workers, negative means
// one worker per core. The parallel path is bit-identical to the
// sequential one: workers only *evaluate* joins (read-only), and the
// resulting bindings are applied serially in exactly the order the
// sequential path would have produced them, so variable/weight/group
// interning order — and therefore the graph — is unchanged. See
// parallel.go for the decomposition.
func (g *Grounder) SetParallelism(n int) { g.par = n }

// Version returns the grounding generation: 0 before the first update —
// the initial Ground, which grounds every rule from the empty database —
// and incremented by every update after it. Together with the graph's
// patch epoch it pins a serving snapshot to one consistent view.
func (g *Grounder) Version() uint64 { return g.version }

// SetCompactionThreshold overrides DefaultCompactionThreshold. t <= 0
// restores the default.
func (g *Grounder) SetCompactionThreshold(t float64) { g.compactThresh = t }

func (g *Grounder) compactionThreshold() float64 {
	if g.compactThresh > 0 {
		return g.compactThresh
	}
	return DefaultCompactionThreshold
}

// New creates a Grounder for a validated program. Relations declared in
// the program are created in a fresh database.
func New(prog *datalog.Program, udfs UDFRegistry) (*Grounder, error) {
	g, err := newGrounder(prog, udfs)
	if err != nil {
		return nil, err
	}
	if _, err := g.addRules(prog.Rules); err != nil {
		return nil, err
	}
	return g, nil
}

// newGrounder is New up to compiling the rules: the declared relations
// over an empty symbol table.
func newGrounder(prog *datalog.Program, udfs UDFRegistry) (*Grounder, error) {
	g := &Grounder{
		prog:        prog,
		udfs:        udfs,
		data:        db.NewDatabase(),
		relSeq:      make(map[string]uint32),
		rulesByHead: make(map[string][]*ruleEval),
		derived:     make(map[string]bool),
		varIdx:      make(map[string]factor.VarID),
		weightIdx:   make(map[string]factor.WeightID),
		groupIdx:    make(map[groupKey]int),
		graphDirty:  true,
		inPlace:     true,
	}
	for i, name := range prog.DeclOrder {
		d := prog.Decls[name]
		if _, err := g.data.Create(d.Name, d.Cols...); err != nil {
			return nil, err
		}
		g.relSeq[d.Name] = uint32(i)
	}
	return g, nil
}

// addRules compiles rules, checks the extended rule set stays
// non-recursive, and only then registers them: on error the grounder is
// exactly as it was.
func (g *Grounder) addRules(rules []*datalog.Rule) ([]*ruleEval, error) {
	res := make([]*ruleEval, len(rules))
	for i, r := range rules {
		re, err := g.compileRule(r, g.nextRuleIdx+i)
		if err != nil {
			return nil, err
		}
		res[i] = re
	}
	topo, err := g.computeTopo(res)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	g.nextRuleIdx += len(res)
	for _, re := range res {
		if re.rule.Kind == datalog.KindInference {
			// Weighted rules ground factors over existing candidate variables;
			// they never derive tuples, so they create no relation dependencies
			// (this is what makes symmetry rules like the paper's I1
			// non-recursive).
			g.weighted = append(g.weighted, re)
			continue
		}
		head := re.rule.Head.Pred
		g.rulesByHead[head] = append(g.rulesByHead[head], re)
		g.derived[head] = true
	}
	return res, nil
}

// computeTopo orders relations so every rule's body relations precede its
// head, over the registered derivation rules plus extra (rules about to
// be registered). Errors on recursion (KBC programs are non-recursive).
func (g *Grounder) computeTopo(extra []*ruleEval) ([]string, error) {
	// Build dependency edges: body rel -> head rel.
	deps := make(map[string]map[string]bool) // head -> set of body rels
	addDeps := func(re *ruleEval) {
		head := re.rule.Head.Pred
		if deps[head] == nil {
			deps[head] = make(map[string]bool)
		}
		for _, b := range re.rule.Body {
			if b.Atom != nil {
				deps[head][b.Atom.Pred] = true
			}
		}
	}
	for _, rules := range g.rulesByHead {
		for _, re := range rules {
			addDeps(re)
		}
	}
	for _, re := range extra {
		if re.rule.Kind != datalog.KindInference {
			addDeps(re)
		}
	}
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("ground: recursive rules through relation %s are not supported", name)
		case 2:
			return nil
		}
		state[name] = 1
		// Deterministic order over dependencies.
		var ds []string
		for d := range deps[name] {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		for _, d := range ds {
			if d == name {
				return fmt.Errorf("ground: recursive rules through relation %s are not supported", name)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, name)
		return nil
	}
	for _, name := range g.prog.DeclOrder {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// DB exposes the underlying database (read-only use expected; mutate base
// relations only through ApplyUpdate or LoadBase).
func (g *Grounder) DB() *db.Database { return g.data }

// Program returns the (possibly extended) program.
func (g *Grounder) Program() *datalog.Program { return g.prog }

// LoadBase validates base tuples for a non-derived relation and stages
// them as inserts of the first update: the initial Ground applies them
// through the same delta path as any update's inserts (an evidence
// relation's tuples supervise their variables, a variable relation's
// become candidates). They are not in DB() before that, and the tuples
// themselves must not be modified until then. After the first update, use
// ApplyUpdate.
func (g *Grounder) LoadBase(rel string, tuples []db.Tuple) error {
	if err := g.checkBaseTuples(rel, tuples); err != nil {
		return err
	}
	if g.derived[rel] {
		return fmt.Errorf("ground: %s is derived; load base data into base relations only", rel)
	}
	if g.version > 0 {
		return fmt.Errorf("ground: LoadBase after the initial grounding; use ApplyUpdate")
	}
	if g.loaded == nil {
		g.loaded = make(map[string][]db.Tuple)
	}
	g.loaded[rel] = append(g.loaded[rel], tuples...)
	return nil
}

// varFor returns (creating if needed) the VarID of a variable-relation
// row, and whether it was created. Liveness is managed by visibility
// transitions in applyTupleDelta, not here.
func (g *Grounder) varFor(rel string, row []db.Sym) (factor.VarID, bool) {
	var a [64]byte
	return g.varForKey(rel, appendVarKey(a[:0], g.relSeq[rel], row))
}

// varForKey is varFor on the row's variable key (appendVarKey): it
// allocates only the key of a variable it creates.
func (g *Grounder) varForKey(rel string, key []byte) (factor.VarID, bool) {
	if id, ok := g.varIdx[string(key)]; ok {
		return id, false
	}
	k := string(key)
	id := factor.VarID(len(g.vars))
	g.vars = append(g.vars, varInfo{rel: rel, key: k})
	g.live = append(g.live, true)
	g.evTrue = append(g.evTrue, 0)
	g.evFalse = append(g.evFalse, 0)
	g.varIdx[k] = id
	return id, true
}

// varOf looks up the VarID of a row without creating it.
func (g *Grounder) varOf(rel string, row []db.Sym) (factor.VarID, bool) {
	var a [64]byte
	id, ok := g.varIdx[string(appendVarKey(a[:0], g.relSeq[rel], row))]
	return id, ok
}

// VarOf looks up the VarID of a tuple without creating it.
func (g *Grounder) VarOf(rel string, t db.Tuple) (factor.VarID, bool) {
	var a [16]db.Sym
	row, ok := g.data.Symbols().FindIDs(a[:0], t)
	if !ok || g.data.Relation(rel) == nil {
		return 0, false
	}
	return g.varOf(rel, row)
}

// VarTuple reverses VarOf.
func (g *Grounder) VarTuple(v factor.VarID) (rel string, t db.Tuple) {
	info := g.vars[v]
	var a [16]db.Sym
	return info.rel, g.data.Symbols().Tuple(info.appendRow(a[:0]))
}

// VarRelation returns the relation the variable's tuple belongs to.
func (g *Grounder) VarRelation(v factor.VarID) string { return g.vars[v].rel }

// VarFacts returns the tuples of variables [from, to) and their
// canonical text keys (Tuple.Key) — the serving skeleton's view of them.
// Tuples are cut from one slab of the symbol table's strings and keys from
// one string: a run of new variables costs a few allocations, not a few
// per variable.
func (g *Grounder) VarFacts(from, to int) (tuples []db.Tuple, keys []string) {
	syms := g.data.Symbols()
	cells, buf, ends := 0, []byte(nil), make([]int, to-from)
	var row []db.Sym
	for v := from; v < to; v++ {
		row = g.vars[v].appendRow(row[:0])
		cells += len(row)
		buf = syms.AppendKey(buf, row)
		ends[v-from] = len(buf)
	}
	slab, all := make([]string, 0, cells), string(buf)
	tuples, keys = make([]db.Tuple, to-from), make([]string, to-from)
	start := 0
	for v := from; v < to; v++ {
		row = g.vars[v].appendRow(row[:0])
		n := len(slab)
		for _, id := range row {
			slab = append(slab, syms.Text(id))
		}
		tuples[v-from] = db.Tuple(slab[n:len(slab):len(slab)])
		keys[v-from] = all[start:ends[v-from]]
		start = ends[v-from]
	}
	return tuples, keys
}

// IsLive reports whether the variable's tuple is still visible.
func (g *Grounder) IsLive(v factor.VarID) bool { return g.live[v] }

// NumVars returns the total number of variables ever created.
func (g *Grounder) NumVars() int { return len(g.vars) }

// weightFor interns a weight key.
func (g *Grounder) weightFor(key []byte, init float64, learn bool) (factor.WeightID, bool) {
	if id, ok := g.weightIdx[string(key)]; ok {
		return id, false
	}
	k := string(key)
	id := factor.WeightID(len(g.weightKeys))
	g.weightKeys = append(g.weightKeys, k)
	g.weightInit = append(g.weightInit, init)
	g.weightLearn = append(g.weightLearn, learn)
	g.weightIdx[k] = id
	return id, true
}

// WeightKey returns the interned key of a weight id (rule + tie values).
func (g *Grounder) WeightKey(id factor.WeightID) string { return g.weightKeys[id] }

// LearnableWeights returns the ids of weights subject to learning (tied
// weights; fixed-value weights are excluded).
func (g *Grounder) LearnableWeights() []factor.WeightID {
	var out []factor.WeightID
	for i, l := range g.weightLearn {
		if l {
			out = append(out, factor.WeightID(i))
		}
	}
	return out
}

// NumGroups returns the number of factor groups materialized so far.
func (g *Grounder) NumGroups() int { return len(g.groups) }

// NumGroundings returns the number of visible groundings across groups.
func (g *Grounder) NumGroundings() int { return g.nGroundings }

// addGroup appends a group without grounding records.
func (g *Grounder) addGroup(k groupKey, sem factor.Semantics) *groupState {
	gs := &cut(&g.slab.groups, 1)[0]
	*gs = groupState{rule: k.rule, head: k.head, weight: k.weight, sem: sem}
	gs.gnds = gs.one[:0]
	g.groupIdx[k] = len(g.groups)
	g.groups = append(g.groups, gs)
	return gs
}

// addCount adds count derivations (negative for removal) to a grounding
// of gs and reports whether the group's visible grounding set changed.
func (g *Grounder) addCount(gs *groupState, gnd *gndState, count int) bool {
	was := gnd.count > 0
	gnd.count += count
	if gnd.count < 0 {
		panic(fmt.Sprintf("ground: grounding count below zero in the group of rule %d, head %d, weight %d", gs.rule, gs.head, gs.weight))
	}
	now := gnd.count > 0
	if was == now {
		return false
	}
	if now {
		g.nGroundings++
	} else {
		g.nGroundings--
	}
	return true
}

// Graph builds (or returns the cached) factor graph for the current
// grounding state. Weight values persist across rebuilds: weights carry
// their last value from the previous graph when one exists, so learned
// weights survive incremental updates (warmstart).
func (g *Grounder) Graph() *factor.Graph {
	if !g.graphDirty && g.lastGraph != nil {
		return g.lastGraph
	}
	b := factor.NewBuilder()
	for range g.vars {
		b.AddVar()
	}
	for i := range g.weightKeys {
		v := g.weightInit[i]
		if g.lastGraph != nil && i < g.lastGraph.NumWeights() {
			v = g.lastGraph.Weight(factor.WeightID(i))
		}
		b.AddWeight(v)
	}
	// Build assigns global grounding indices sequentially over the visible
	// groundings in group order; record them so the in-place patch path
	// can address groundings in the flat pool later.
	var flatID int32
	for _, gs := range g.groups {
		b.AddGroup(gs.head, gs.weight, gs.sem, nil)
		for _, gnd := range gs.gnds {
			if gnd.count > 0 {
				b.AddGrounding(gnd.lits)
				gnd.flatID = flatID
				flatID++
			} else {
				gnd.flatID = -1
			}
		}
	}
	graph := b.MustBuild()
	for v := range g.vars {
		if g.evTrue[v]+g.evFalse[v] > 0 {
			graph.SetEvidence(factor.VarID(v), true, g.evTrue[v] >= g.evFalse[v])
		}
	}
	g.lastGraph = graph
	g.graphDirty = false
	return graph
}
