package ground

import (
	"fmt"
	"math"
	"slices"

	"deepdive/internal/datalog"
	"deepdive/internal/factor"
	"deepdive/internal/persist"
)

// Snapshot codec for Grounder. Persisted: the symbol table, the
// extraction tables (every db relation as rows of ids, first-insertion
// order preserved), the variable / weight / group interning tables in
// creation order, each group's groundings in creation order with counts
// and flat-pool handles, and the grounding version. NOT persisted: the
// compiled rules — the caller re-parses the persisted program source and
// hands it to Restore, which compiles the rules in declaration order
// against the restored symbol table (it holds every rule constant) and so
// reproduces the same rule indexes, weight keys, and topo order. The side
// maps (varIdx, weightIdx, groupIdx) are rebuilt from the ordered lists;
// a group is persisted as its groupKey. Relation rows, variable keys and
// binding keys are symbol ids; an image of another version is refused.
const grounderCodecVersion = 2

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

	rels := make([]string, len(g.vars))
	keys := make([]string, len(g.vars))
	for i, v := range g.vars {
		rels[i] = v.rel
		keys[i] = v.key
	}
	b.Strs(rels)
	b.Strs(keys)
	b.Bools(g.live)
	b.Ints(g.evTrue)
	b.Ints(g.evFalse)

	b.Strs(g.weightKeys)
	b.F64s(g.weightInit)
	b.Bools(g.weightLearn)

	b.U64(uint64(len(g.groups)))
	for _, gs := range g.groups {
		b.U32(uint32(gs.rule))
		b.I64(int64(gs.head))
		b.I64(int64(gs.weight))
		b.U8(uint8(gs.sem))
		b.U64(uint64(len(gs.gnds)))
		for _, gnd := range gs.gnds {
			b.Str(gnd.key)
			b.I64(int64(gnd.count))
			b.I64(int64(gnd.flatID))
			lits := make([]int32, len(gnd.lits))
			for i, l := range gnd.lits {
				enc := int32(l.Var) << 1
				if l.Neg {
					enc |= 1
				}
				lits[i] = enc
			}
			b.I32s(lits)
		}
	}
}

// Restore builds the grounder AppendSnapshot encoded into rd, for the
// program it was encoded with (the persisted program source, re-parsed):
// its symbol table is decoded first and the program's rules compile
// against it — in declaration order, reproducing the rule indexes, weight
// keys and topo order — finding every constant already there. cur becomes
// the grounder's cached current graph, so Graph() serves it without a
// rebuild.
//
// The image is checked as it is read: an image this program could not
// have written — another codec version, a symbol table without the
// program's constants or holding a value twice, a relation list other
// than the program's, an id past the symbol table, a key of the wrong
// shape, a reference past a table, a count below zero, a key stored
// twice, trailing bytes — is refused, so a grounder restored from any
// accepted image re-encodes to exactly that image.
func Restore(prog *datalog.Program, udfs UDFRegistry, rd *persist.Rd, cur *factor.Graph) (*Grounder, error) {
	g, err := newGrounder(prog, udfs)
	if err != nil {
		return nil, err
	}
	if err := g.restore(rd, cur); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *Grounder) restore(rd *persist.Rd, cur *factor.Graph) error {
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

	rels := rd.Strs("var rels")
	keys := rd.Strs("var keys")
	if err := rd.Err(); err != nil {
		return err
	}
	if len(rels) != len(keys) {
		return fmt.Errorf("ground: corrupt var table: %d rels, %d keys", len(rels), len(keys))
	}
	g.vars = make([]varInfo, len(rels))
	g.varIdx = make(map[string]factor.VarID, len(rels))
	for i, rel := range rels {
		info := varInfo{rel: rel, key: keys[i]}
		seq, declared := g.relSeq[rel]
		if !declared || !g.validKey(info.key, seq, g.data.Relation(rel).Arity()) {
			return fmt.Errorf("ground: corrupt var table: key %d of %s", i, rel)
		}
		if _, dup := g.varIdx[info.key]; dup {
			return fmt.Errorf("ground: corrupt var table: variable %d of %s stored twice", i, rel)
		}
		g.vars[i] = info
		g.varIdx[info.key] = factor.VarID(i)
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
	nv, nw := len(g.vars), len(g.weightKeys)
	if len(g.live) != nv || len(g.evTrue) != nv || len(g.evFalse) != nv ||
		slices.ContainsFunc(g.evTrue, negative) || slices.ContainsFunc(g.evFalse, negative) {
		return fmt.Errorf("ground: corrupt variable tables in snapshot")
	}
	if len(g.weightInit) != nw || len(g.weightLearn) != nw {
		return fmt.Errorf("ground: corrupt weight tables in snapshot")
	}

	// Records come from the slabs the live grounder cuts its own from.
	var enc []int32
	nGroups := rd.Count(29, "group count")
	g.groups = make([]*groupState, 0, nGroups+nGroups/8)
	g.groupIdx = make(map[groupKey]int, nGroups)
	for gi := 0; gi < nGroups && rd.Err() == nil; gi++ {
		rule, head, weight := rd.U32("group rule"), rd.I64("group head"), rd.I64("group weight")
		sem := factor.Semantics(rd.U8("group sem"))
		if rd.Err() != nil {
			break
		}
		var re *ruleEval
		if uint64(rule) < uint64(len(byIdx)) {
			re = byIdx[rule]
		}
		key := groupKey{int32(rule), factor.VarID(head), factor.WeightID(weight)}
		if re == nil || re.rule.Kind != datalog.KindInference || uint64(head) >= uint64(nv) ||
			uint64(weight) >= uint64(nw) || sem > factor.Ratio {
			return fmt.Errorf("ground: corrupt group %d: rule %d, head %d, weight %d, semantics %d", gi, rule, head, weight, sem)
		}
		if _, dup := g.groupIdx[key]; dup {
			return fmt.Errorf("ground: corrupt group %d: stored twice", gi)
		}
		gs := g.addGroup(key, sem)
		nGnds := rd.Count(32, "grounding count")
		if nGnds > len(gs.one) {
			gs.gnds = cut(&g.slab.order, nGnds)[:0]
		}
		for k := 0; k < nGnds && rd.Err() == nil; k++ {
			gkey := rd.Str("grounding key")
			count, flatID := rd.I64("grounding count"), rd.I64("grounding flatID")
			enc = rd.AppendI32s(enc[:0], "grounding lits")
			if rd.Err() != nil {
				break
			}
			if len(gkey) != 4*len(re.keySlots) || count < 0 || count > math.MaxInt32 ||
				flatID < -1 || flatID > math.MaxInt32 || len(enc) != len(re.lits) ||
				slices.ContainsFunc(enc, func(e int32) bool { return e < 0 || int(e>>1) >= nv }) {
				return fmt.Errorf("ground: corrupt grounding %d of group %d", k, gi)
			}
			if gs.find([]byte(gkey)) != nil {
				return fmt.Errorf("ground: corrupt group %d: grounding stored twice", gi)
			}
			gnd := &cut(&g.slab.gnds, 1)[0]
			*gnd = gndState{key: gkey, count: int(count), flatID: int32(flatID)}
			if len(enc) > 0 {
				gnd.lits = cut(&g.slab.lits, len(enc))
				for i, e := range enc {
					gnd.lits[i] = factor.Literal{Var: factor.VarID(e >> 1), Neg: e&1 == 1}
				}
			}
			gs.add(gnd)
			if gnd.count > 0 {
				g.nGroundings++
			}
		}
	}
	if err := rd.Err(); err != nil {
		return err
	}
	if !rd.Done() {
		return fmt.Errorf("ground: trailing bytes after the grounder image")
	}
	g.lastGraph = cur
	g.graphDirty = cur == nil
	return nil
}

func negative(n int) bool { return n < 0 }

// validKey reports whether key is a variable key of a relation at seq of
// the given arity whose ids are all in the symbol table.
func (g *Grounder) validKey(key string, seq uint32, arity int) bool {
	if len(key) != 4*(1+arity) {
		return false
	}
	if le32(key) != seq {
		return false
	}
	for i := 4; i < len(key); i += 4 {
		if int(le32(key[i:])) >= g.data.Symbols().Len() {
			return false
		}
	}
	return true
}

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
