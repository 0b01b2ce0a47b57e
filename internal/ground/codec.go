package ground

import (
	"fmt"
	"slices"

	"deepdive/internal/datalog"
	"deepdive/internal/factor"
	"deepdive/internal/idtab"
	"deepdive/internal/persist"
)

// Snapshot codec for Grounder. Persisted: the symbol table, the
// extraction tables (every db relation as rows of ids, first-insertion
// order preserved), the grounding version, and the grounder's record slabs
// as bulk arrays in creation order — the variable keys, liveness and
// evidence counts; the weight keys, initial values and learn flags; each
// group's (rule, head, weight, semantics); each grounding's (group, count),
// then every binding key and every literal. NOT persisted, rebuilt on
// Restore: the compiled rules — the caller re-parses the persisted program
// source and hands it to Restore, which compiles the rules in declaration
// order against the restored symbol table (it holds every rule constant)
// and so reproduces the same rule indexes, weight keys, and topo order —,
// the offsets of variable keys, binding keys and literals (their widths
// follow from the relations and the rules), each group's grounding chain
// (from the groundings' order), the lookup tables (varTab, weightIdx,
// groupTab, gndTab), and the factor graph with the groundings' flat-pool
// handles, which the first Graph call builds. Another version is refused.
const grounderCodecVersion = 4

// AppendSnapshot encodes the grounder's dynamic state into b.
func (g *Grounder) AppendSnapshot(b *persist.Buf) {
	b.U8(grounderCodecVersion)
	b.U64(g.version)
	g.data.Symbols().AppendSnapshot(b)

	names := g.data.Names()
	b.Strs(names)
	for _, name := range names {
		g.data.Relation(name).AppendSnapshot(b)
	}

	b.U32s(g.varKeys)
	b.Bools(g.live)
	b.Ints(g.evTrue)
	b.Ints(g.evFalse)

	b.Strs(g.weightKeys)
	b.F64s(g.weightInit)
	b.Bools(g.weightLearn)

	groups := make([]uint32, 0, groupWords*len(g.groups))
	for _, gs := range g.groups {
		groups = append(groups, uint32(gs.rule), uint32(gs.head), uint32(gs.weight), uint32(gs.sem))
	}
	b.U32s(groups)
	gnds := make([]int32, 0, gndWords*len(g.gnds))
	for _, gnd := range g.gnds {
		gnds = append(gnds, gnd.group, gnd.count)
	}
	b.I32s(gnds)
	b.U32s(g.gndKeys)
	lits := make([]int32, len(g.lits))
	for i, l := range g.lits {
		lits[i] = int32(l.Var) << 1
		if l.Neg {
			lits[i] |= 1
		}
	}
	b.I32s(lits)
}

// The words a group and a grounding take in the snapshot's arrays.
const (
	groupWords = 4 // rule, head, weight, semantics
	gndWords   = 2 // group, count
)

// Restore builds the grounder AppendSnapshot encoded into rd, for the
// program it was encoded with (the persisted program source, re-parsed):
// its symbol table is decoded first and the program's rules compile
// against it — in declaration order, reproducing the rule indexes, weight
// keys and topo order — finding every constant already there. The first
// Graph call builds the factor graph, with the weights' initial values.
//
// The image is checked as it is read: an image this program could not
// have written — another codec version, a symbol table without the
// program's constants or holding a value twice, a relation list other
// than the program's, an id past the symbol table, a key of the wrong
// shape, a reference past a table, a count below zero, a key stored
// twice, trailing bytes — is refused, so a grounder restored from any
// accepted image re-encodes to exactly that image.
func Restore(prog *datalog.Program, udfs UDFRegistry, rd *persist.Rd) (*Grounder, error) {
	g, err := newGrounder(prog, udfs)
	if err != nil {
		return nil, err
	}
	if err := g.restore(rd); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *Grounder) restore(rd *persist.Rd) error {
	if v := rd.U8("grounder version"); rd.Err() == nil && v != grounderCodecVersion {
		return fmt.Errorf("ground: unsupported grounder codec version %d (this build reads %d)", v, grounderCodecVersion)
	}
	g.version = rd.U64("grounding version")
	syms := g.data.Symbols()
	if err := syms.RestoreSnapshot(rd); err != nil {
		return err
	}
	nSyms := syms.Len()
	if _, err := g.addRules(g.prog.Rules); err != nil {
		return err
	}
	if syms.Len() != nSyms {
		return fmt.Errorf("ground: snapshot symbol table lacks constants of the program")
	}
	byIdx := make([]*ruleEval, g.nextRuleIdx)
	for _, re := range g.allRules() {
		byIdx[re.idx] = re
	}

	names := rd.Strs("db relation names")
	if rd.Err() == nil && !slices.Equal(names, g.data.Names()) {
		return fmt.Errorf("ground: snapshot relations %v are not the program's %v", names, g.data.Names())
	}
	for _, name := range names {
		if err := g.data.Relation(name).RestoreSnapshot(rd); err != nil {
			return err
		}
	}

	// Variables: each key is its relation's position, then as many ids as
	// the relation has columns.
	g.varKeys = rd.U32s("var keys")
	for off := 0; off < len(g.varKeys); {
		seq := g.varKeys[off]
		if uint64(seq) >= uint64(len(g.rels)) {
			return fmt.Errorf("ground: corrupt var table: relation %d of variable %d", seq, g.NumVars())
		}
		end := off + 1 + g.rels[seq].rel.Arity()
		if end > len(g.varKeys) || slices.ContainsFunc(g.varKeys[off+1:end], func(id uint32) bool { return id >= uint32(nSyms) }) {
			return fmt.Errorf("ground: corrupt var table: key of variable %d", g.NumVars())
		}
		g.varOff = append(g.varOff, int32(end))
		off = end
	}
	g.varTab.Reset(g.NumVars())
	for v := range factor.VarID(g.NumVars()) {
		k := g.varKey(v)
		h := idtab.HashAfter(k[0], k[1:])
		i, dup := g.findVar(k[0], k[1:], h)
		if dup {
			return fmt.Errorf("ground: corrupt var table: variable %d stored twice", v)
		}
		g.varTab.Put(i, h, int32(v), 0)
	}
	g.live = rd.Bools("var live")
	g.evTrue = rd.Ints("var evTrue")
	g.evFalse = rd.Ints("var evFalse")

	g.weightKeys = rd.Strs("weight keys")
	g.weightInit = rd.F64s("weight init")
	g.weightLearn = rd.Bools("weight learn")
	for i, k := range g.weightKeys {
		if _, dup := g.weightIdx[k]; dup {
			return fmt.Errorf("ground: corrupt weight table: key %q stored twice", k)
		}
		g.weightIdx[k] = factor.WeightID(i)
	}
	if err := rd.Err(); err != nil {
		return err
	}
	nv, nw := g.NumVars(), len(g.weightKeys)
	if len(g.live) != nv || len(g.evTrue) != nv || len(g.evFalse) != nv ||
		slices.ContainsFunc(g.evTrue, negative) || slices.ContainsFunc(g.evFalse, negative) {
		return fmt.Errorf("ground: corrupt variable tables in snapshot")
	}
	if len(g.weightInit) != nw || len(g.weightLearn) != nw {
		return fmt.Errorf("ground: corrupt weight tables in snapshot")
	}

	groups := rd.U32s("groups")
	if rd.Err() == nil && len(groups)%groupWords != 0 {
		return fmt.Errorf("ground: corrupt group table: %d words", len(groups))
	}
	g.groups = make([]groupState, 0, withRoom(len(groups)/groupWords))
	g.groupTab.Reset(len(groups) / groupWords)
	for w := 0; w < len(groups); w += groupWords {
		gi := len(g.groups)
		rule, head, weight, sem := groups[w], groups[w+1], groups[w+2], factor.Semantics(groups[w+3])
		var re *ruleEval
		if uint64(rule) < uint64(len(byIdx)) {
			re = byIdx[rule]
		}
		if re == nil || re.rule.Kind != datalog.KindInference || uint64(head) >= uint64(nv) ||
			uint64(weight) >= uint64(nw) || groups[w+3] > uint32(factor.Ratio) {
			return fmt.Errorf("ground: corrupt group %d: rule %d, head %d, weight %d, semantics %d", gi, rule, head, weight, groups[w+3])
		}
		key := groupKey{int32(rule), factor.VarID(head), factor.WeightID(weight)}
		h := hashGroup(key)
		i, dup := g.findGroup(key, h)
		if dup {
			return fmt.Errorf("ground: corrupt group %d: stored twice", gi)
		}
		g.addGroup(i, h, key, sem)
	}

	// Groundings: each key and literal list is as wide as its group's rule
	// makes it, and together they take the key and literal arrays exactly.
	gnds := rd.I32s("groundings")
	keys := rd.U32s("grounding keys")
	lits := rd.I32s("grounding lits")
	if err := rd.Err(); err != nil {
		return err
	}
	if len(gnds)%gndWords != 0 {
		return fmt.Errorf("ground: corrupt grounding table: %d words", len(gnds))
	}
	g.gnds = make([]gndState, 0, withRoom(len(gnds)/gndWords))
	g.gndTab.Reset(len(gnds) / gndWords)
	g.gndKeys = make([]uint32, 0, withRoom(len(keys)))
	g.lits = make([]factor.Literal, 0, withRoom(len(lits)))
	for w := 0; w < len(gnds); w += gndWords {
		k := len(g.gnds)
		gi, count := gnds[w], gnds[w+1]
		if gi < 0 || int(gi) >= len(g.groups) || count < 0 {
			return fmt.Errorf("ground: corrupt grounding %d: group %d, count %d", k, gi, count)
		}
		re := byIdx[g.groups[gi].rule]
		keyEnd, litEnd := len(g.gndKeys)+len(re.keySlots), len(g.lits)+len(re.lits)
		if keyEnd > len(keys) || litEnd > len(lits) ||
			slices.ContainsFunc(lits[len(g.lits):litEnd], func(e int32) bool { return e < 0 || int(e>>1) >= nv }) {
			return fmt.Errorf("ground: corrupt grounding %d of group %d", k, gi)
		}
		key := keys[len(g.gndKeys):keyEnd]
		h := idtab.HashAfter(uint32(gi), key)
		i, dup := g.findGnd(gi, key, h)
		if dup {
			return fmt.Errorf("ground: corrupt group %d: grounding stored twice", gi)
		}
		g.addGnd(i, h, gi, key)
		for _, e := range lits[len(g.lits):litEnd] {
			g.lits = append(g.lits, factor.Literal{Var: factor.VarID(e >> 1), Neg: e&1 == 1})
		}
		g.gnds[k].count = count
		if count > 0 {
			g.nGroundings++
		}
	}
	if len(g.gndKeys) != len(keys) || len(g.lits) != len(lits) {
		return fmt.Errorf("ground: corrupt grounding table: %d key ids and %d literals left over", len(keys)-len(g.gndKeys), len(lits)-len(g.lits))
	}
	if err := rd.Err(); err != nil {
		return err
	}
	if !rd.Done() {
		return fmt.Errorf("ground: trailing bytes after the grounder image")
	}
	return nil
}

func negative(n int) bool { return n < 0 }

// withRoom is the capacity a slab of n restored records is rebuilt with:
// room for the updates after a recovery to add some before the slab grows,
// which copies it whole.
func withRoom(n int) int { return n + n/8 }

// allRules returns every compiled rule: derivation and supervision rules
// by head relation in declaration order, then the weighted ones.
func (g *Grounder) allRules() []*ruleEval {
	var out []*ruleEval
	for _, name := range g.prog.DeclOrder {
		out = append(out, g.rulesByHead[name]...)
	}
	return append(out, g.weighted...)
}

// MarkGraphDirty forces the next Graph() call to rebuild the flat
// pools from the grounding tables — the compaction pass the checkpoint
// writer uses to fold patch overflow rows into a frozen base before
// serializing.
func (g *Grounder) MarkGraphDirty() { g.graphDirty = true }
