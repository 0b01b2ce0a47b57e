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
//
// The grounder's per-record state holds no pointer: variables, groups and
// groundings are records in slabs of ids and fixed-size values (a variable
// key arena, a group slab, a grounding slab with its binding-key arena and
// literal slab), each found through an open-addressing table keyed on the
// ids that identify it (idtab.Table), so what a grounder gives the
// collector to walk does not grow with what it grounds. Only weights keep
// text keys: there are few of them, and they carry UDF output. The
// snapshot codec (codec.go) writes the slabs as bulk arrays; Restore
// rebuilds the offsets, the groups' grounding chains and the tables.
package ground

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/idtab"
)

// UDF is a user-defined function used in weight expressions: it maps the
// bound argument values to a tie key (rule FE1's phrase(...) in the
// paper). UDFs must be pure. args is valid only during the call: the
// grounder reuses the slice for the next binding (its strings are the
// symbol table's, resolved without a copy).
type UDF func(args []string) string

// UDFRegistry names the UDFs available to a program.
type UDFRegistry map[string]UDF

// A variable is its key — its relation's declaration position, then its
// row's ids — stored back to back with the others in Grounder.varKeys, and
// found through Grounder.varTab.

// groupState is one grounded rule instance γ = (rule, head binding, weight
// binding), interned — and persisted — by its groupKey. Its groundings are
// chained in creation order through gndState.next.
type groupState struct {
	rule   int32 // ruleEval.idx
	head   factor.VarID
	weight factor.WeightID
	sem    factor.Semantics
	first  int32 // its first grounding, -1 while it has none
	last   int32 // its last grounding, -1 while it has none
}

// groupKey identifies a group: the rule, its head variable and the weight.
type groupKey struct {
	rule   int32
	head   factor.VarID
	weight factor.WeightID
}

// gndState is one grounding with its derivation count, identified within
// its group by its binding key (4 bytes per rule variable: the binding's
// ids). Its key and literals sit in the grounder's gndKeys and lits slabs,
// in grounding order: they end where the next grounding's begin. flatID is
// the grounding's index in the flat pool of the grounder's current graph
// when the grounding is visible there, -1 otherwise — the handle the
// in-place patch path uses to tombstone retracted groundings.
type gndState struct {
	group  int32
	next   int32 // the group's next grounding, -1 after its last
	key    int32 // its binding key starts at gndKeys[key]
	lit    int32 // its literals start at lits[lit]
	count  int32
	flatID int32
}

// relInfo is what applying a row to a relation needs to know of it.
type relInfo struct {
	rel        *db.Relation
	variable   bool  // a variable relation: its rows are candidates
	evidenceOf int32 // for an evidence relation R_Ev of a declared R, R's position; else -1
}

// Grounder holds the database and all grounding state for one program.
type Grounder struct {
	prog   *datalog.Program
	udfs   UDFRegistry
	data   *db.Database
	relSeq map[string]uint32 // relation → its declaration position (variable-key prefix)
	rels   []relInfo         // by declaration position

	topo        []string               // relation evaluation order (derivation pipeline)
	rulesByHead map[string][]*ruleEval // derivation & supervision rules
	weighted    []*ruleEval            // inference (weighted) rules, in order
	derived     map[string]bool        // heads of derivation/supervision rules
	nextRuleIdx int

	varKeys []uint32 // variable keys, back to back in VarID order
	varOff  []int32  // variable v's key is varKeys[varOff[v]:varOff[v+1]]
	varTab  idtab.Table
	live    []bool
	evTrue  []int // per var: count of true evidence derivations
	evFalse []int

	weightKeys  []string
	weightInit  []float64
	weightLearn []bool
	weightIdx   map[string]factor.WeightID

	groups      []groupState
	groupTab    idtab.Table // groupKey → group
	gnds        []gndState
	gndKeys     []uint32         // binding keys, in grounding order
	lits        []factor.Literal // literals, in grounding order
	gndTab      idtab.Table      // (group, binding key) → grounding
	nGroundings int              // visible groundings across groups, kept at the count transitions

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
		varOff:      []int32{0},
		weightIdx:   make(map[string]factor.WeightID),
		graphDirty:  true,
		inPlace:     true,
	}
	for i, name := range prog.DeclOrder {
		d := prog.Decls[name]
		rel, err := g.data.Create(d.Name, d.Cols...)
		if err != nil {
			return nil, err
		}
		g.relSeq[d.Name] = uint32(i)
		g.rels = append(g.rels, relInfo{rel: rel, variable: d.Variable, evidenceOf: -1})
	}
	for i, name := range prog.DeclOrder {
		if base, isEv := datalog.EvidenceTarget(name); isEv {
			if seq, declared := g.relSeq[base]; declared {
				g.rels[i].evidenceOf = int32(seq)
			}
		}
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

// varKey returns variable v's key: its relation's declaration position,
// then its row's ids.
func (g *Grounder) varKey(v factor.VarID) []uint32 {
	return g.varKeys[g.varOff[v]:g.varOff[v+1]]
}

// findVar returns the slot of varTab holding the variable of the row of
// the relation at seq (hash h: idtab.HashAfter(seq, row)) and true, or
// the slot it would go to and false.
func (g *Grounder) findVar(seq uint32, row []db.Sym, h uint32) (int, bool) {
	return g.varTab.Find(h, func(v int32) bool {
		k := g.varKey(factor.VarID(v))
		return k[0] == seq && slices.Equal(k[1:], row)
	})
}

// varFor returns (creating if needed) the VarID of a row of the relation
// at seq, and whether it was created. Liveness is managed by visibility
// transitions in applyTupleDelta, not here.
func (g *Grounder) varFor(seq uint32, row []db.Sym) (factor.VarID, bool) {
	h := idtab.HashAfter(seq, row)
	i, ok := g.findVar(seq, row, h)
	if ok {
		return factor.VarID(g.varTab.Pos(i)), false
	}
	id := factor.VarID(g.NumVars())
	g.varKeys = append(append(idtab.Grow(g.varKeys, 1+len(row)), seq), row...)
	g.varOff = append(idtab.Grow(g.varOff, 1), int32(len(g.varKeys)))
	g.live = append(idtab.Grow(g.live, 1), true)
	g.evTrue = append(idtab.Grow(g.evTrue, 1), 0)
	g.evFalse = append(idtab.Grow(g.evFalse, 1), 0)
	g.varTab.Put(i, h, int32(id), 0)
	return id, true
}

// varOf looks up the VarID of a row without creating it.
func (g *Grounder) varOf(seq uint32, row []db.Sym) (factor.VarID, bool) {
	i, ok := g.findVar(seq, row, idtab.HashAfter(seq, row))
	if !ok {
		return 0, false
	}
	return factor.VarID(g.varTab.Pos(i)), true
}

// VarOf looks up the VarID of a tuple without creating it.
func (g *Grounder) VarOf(rel string, t db.Tuple) (factor.VarID, bool) {
	var a [16]db.Sym
	row, ok := g.data.Symbols().FindIDs(a[:0], t)
	seq, declared := g.relSeq[rel]
	if !ok || !declared {
		return 0, false
	}
	return g.varOf(seq, row)
}

// VarTuple reverses VarOf.
func (g *Grounder) VarTuple(v factor.VarID) (rel string, t db.Tuple) {
	k := g.varKey(v)
	return g.prog.DeclOrder[k[0]], g.data.Symbols().Tuple(k[1:])
}

// VarRelation returns the relation the variable's tuple belongs to.
func (g *Grounder) VarRelation(v factor.VarID) string {
	return g.prog.DeclOrder[g.varKey(v)[0]]
}

// VarFacts returns the tuples of variables [from, to) and their
// canonical text keys (Tuple.Key) — the serving skeleton's view of them.
// Tuples are cut from one slab of the symbol table's strings and keys from
// one string: a run of new variables costs a few allocations, not a few
// per variable.
func (g *Grounder) VarFacts(from, to int) (tuples []db.Tuple, keys []string) {
	syms := g.data.Symbols()
	buf, ends := []byte(nil), make([]int, to-from)
	for v := from; v < to; v++ {
		buf = syms.AppendKey(buf, g.varKey(factor.VarID(v))[1:])
		ends[v-from] = len(buf)
	}
	cells := int(g.varOff[to]-g.varOff[from]) - (to - from)
	slab, all := make([]string, 0, cells), string(buf)
	tuples, keys = make([]db.Tuple, to-from), make([]string, to-from)
	start := 0
	for v := from; v < to; v++ {
		n := len(slab)
		for _, id := range g.varKey(factor.VarID(v))[1:] {
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
func (g *Grounder) NumVars() int { return len(g.varOff) - 1 }

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

// findGroup returns the slot of groupTab holding group k (hash h:
// hashGroup(k)) and true, or the slot it would go to and false.
func (g *Grounder) findGroup(k groupKey, h uint32) (int, bool) {
	return g.groupTab.Find(h, func(gi int32) bool {
		gs := &g.groups[gi]
		return gs.rule == k.rule && gs.head == k.head && gs.weight == k.weight
	})
}

func hashGroup(k groupKey) uint32 {
	return idtab.Hash([]uint32{uint32(k.rule), uint32(k.head), uint32(k.weight)})
}

// addGroup appends group k, whose slot in groupTab is i (findGroup), with
// no groundings.
func (g *Grounder) addGroup(i int, h uint32, k groupKey, sem factor.Semantics) int {
	gi := len(g.groups)
	g.groups = append(idtab.Grow(g.groups, 1), groupState{rule: k.rule, head: k.head, weight: k.weight, sem: sem, first: -1, last: -1})
	g.groupTab.Put(i, h, int32(gi), 0)
	return gi
}

// findGnd returns the slot of gndTab holding group gi's grounding of the
// binding key (hash h: idtab.HashAfter(gi, key)) and true, or the slot it
// would go to and false. Every grounding of a group has a key of the same
// length, its rule's.
func (g *Grounder) findGnd(gi int32, key []uint32, h uint32) (int, bool) {
	return g.gndTab.Find(h, func(i int32) bool {
		gnd := &g.gnds[i]
		return gnd.group == gi && slices.Equal(g.gndKeys[gnd.key:int(gnd.key)+len(key)], key)
	})
}

// addGnd appends a grounding of group gi with the binding key, whose slot
// in gndTab is i (findGnd), and no literals: the caller appends them to
// g.lits before the next grounding is added.
func (g *Grounder) addGnd(i int, h uint32, gi int32, key []uint32) int32 {
	n := int32(len(g.gnds))
	g.gnds = append(idtab.Grow(g.gnds, 1), gndState{group: gi, next: -1, key: int32(len(g.gndKeys)), lit: int32(len(g.lits)), flatID: -1})
	g.gndKeys = append(idtab.Grow(g.gndKeys, len(key)), key...)
	if gs := &g.groups[gi]; gs.last < 0 {
		gs.first = n
	} else {
		g.gnds[gs.last].next = n
	}
	g.groups[gi].last = n
	g.gndTab.Put(i, h, n, 0)
	return n
}

// gndLits returns grounding i's literals.
func (g *Grounder) gndLits(i int32) []factor.Literal {
	end := int32(len(g.lits))
	if int(i)+1 < len(g.gnds) {
		end = g.gnds[i+1].lit
	}
	return g.lits[g.gnds[i].lit:end]
}

// addCount adds count derivations (negative for removal) to grounding i
// and reports whether its group's visible grounding set changed.
func (g *Grounder) addCount(i int32, count int) bool {
	gnd := &g.gnds[i]
	was := gnd.count > 0
	c := int64(gnd.count) + int64(count)
	if c < 0 || c > math.MaxInt32 {
		gs := &g.groups[gnd.group]
		panic(fmt.Sprintf("ground: grounding count %d in the group of rule %d, head %d, weight %d", c, gs.rule, gs.head, gs.weight))
	}
	gnd.count = int32(c)
	now := c > 0
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
	lits := 0
	for i := range g.gnds {
		if g.gnds[i].count > 0 {
			lits += len(g.gndLits(int32(i)))
		}
	}
	b.Grow(g.NumVars(), len(g.weightKeys), len(g.groups))
	b.GrowGroundings(g.nGroundings, lits)
	for range g.NumVars() {
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
		for i := gs.first; i >= 0; i = g.gnds[i].next {
			if gnd := &g.gnds[i]; gnd.count > 0 {
				b.AddGrounding(g.gndLits(i))
				gnd.flatID = flatID
				flatID++
			} else {
				gnd.flatID = -1
			}
		}
	}
	graph := b.MustBuild()
	for v := range g.NumVars() {
		if g.evTrue[v]+g.evFalse[v] > 0 {
			graph.SetEvidence(factor.VarID(v), true, g.evTrue[v] >= g.evFalse[v])
		}
	}
	g.lastGraph = graph
	g.graphDirty = false
	return graph
}
