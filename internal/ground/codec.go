package ground

import (
	"fmt"
	"strconv"
	"strings"

	"deepdive/internal/factor"
	"deepdive/internal/persist"
)

// Snapshot codec for Grounder. Persisted: the extraction tables (every
// db relation, first-insertion order preserved), the variable / weight
// / group interning tables in creation order, each group's groundings
// in creation order with counts and flat-pool handles, and the grounding
// version. NOT persisted: the compiled rules — the caller re-parses
// the persisted program source and builds a fresh Grounder with
// ground.New, which recompiles rules in declaration order and so
// reproduces the same rule indexes, weight keys, and topo order. The
// side maps (varIdx, weightIdx, groupIdx) are rebuilt from the ordered
// lists; a group is persisted under a key string (appendGroupKey) the
// rule index is read back out of.
const grounderCodecVersion = 1

// AppendSnapshot encodes the grounder's dynamic state into b.
func (g *Grounder) AppendSnapshot(b *persist.Buf) {
	b.U8(grounderCodecVersion)
	b.U64(g.version)

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
	var key []byte
	for _, gs := range g.groups {
		key = g.appendGroupKey(key[:0], gs)
		b.StrBytes(key)
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

// appendGroupKey appends the key a group is persisted under,
// "g:<rule>:<head tuple key>:<weight>".
func (g *Grounder) appendGroupKey(buf []byte, gs *groupState) []byte {
	buf = strconv.AppendInt(append(buf, "g:"...), int64(gs.rule), 10)
	buf = append(append(buf, ':'), g.vars[gs.head].key...)
	return strconv.AppendInt(append(buf, ':'), int64(gs.weight), 10)
}

// groupRule parses the rule index back out of a persisted group key.
func groupRule(key string) (int32, bool) {
	rest, ok := strings.CutPrefix(key, "g:")
	i := strings.IndexByte(rest, ':')
	if !ok || i < 0 {
		return 0, false
	}
	rule, err := strconv.ParseInt(rest[:i], 10, 32)
	return int32(rule), err == nil
}

// RestoreSnapshot decodes state written by AppendSnapshot into a
// freshly constructed Grounder (same program source, no grounding run
// yet). cur becomes the grounder's cached current graph, so Graph()
// serves it without a rebuild.
func (g *Grounder) RestoreSnapshot(rd *persist.Rd, cur *factor.Graph) error {
	if g.version != 0 || len(g.vars) != 0 {
		return fmt.Errorf("ground: RestoreSnapshot into a used grounder")
	}
	if v := rd.U8("grounder version"); rd.Err() == nil && v != grounderCodecVersion {
		return fmt.Errorf("ground: unsupported grounder codec version %d", v)
	}
	g.version = rd.U64("grounding version")

	names := rd.Strs("db relation names")
	for _, name := range names {
		rel := g.data.Relation(name)
		if rel == nil {
			return fmt.Errorf("ground: snapshot has relation %s not declared by the program", name)
		}
		if err := rel.RestoreSnapshot(rd); err != nil {
			return err
		}
	}

	rels := rd.Strs("var rels")
	keys := rd.Strs("var keys")
	if len(rels) != len(keys) {
		return fmt.Errorf("ground: corrupt var table: %d rels, %d keys", len(rels), len(keys))
	}
	g.vars = make([]varInfo, len(rels))
	// The side map's keys are cut from one string.
	idxBytes := len(rels)
	for i := range rels {
		g.vars[i] = varInfo{rel: rels[i], key: keys[i]}
		idxBytes += len(rels[i]) + len(keys[i])
	}
	idx, ends := make([]byte, 0, idxBytes), make([]int, len(rels))
	for i := range rels {
		idx = append(append(append(idx, rels[i]...), 0), keys[i]...)
		ends[i] = len(idx)
	}
	g.varIdx = make(map[string]factor.VarID, len(rels))
	for i, all, start := 0, string(idx), 0; i < len(ends); i++ {
		g.varIdx[all[start:ends[i]]] = factor.VarID(i)
		start = ends[i]
	}
	g.live = rd.Bools("var live")
	g.evTrue = rd.Ints("var evTrue")
	g.evFalse = rd.Ints("var evFalse")

	g.weightKeys = rd.Strs("weight keys")
	g.weightInit = rd.F64s("weight init")
	g.weightLearn = rd.Bools("weight learn")
	for i, k := range g.weightKeys {
		g.weightIdx[k] = factor.WeightID(i)
	}

	// Records come from the slabs the live grounder cuts its own from.
	var enc []int32
	nGroups := rd.Count(33, "group count")
	g.groups = make([]*groupState, 0, nGroups+nGroups/8)
	g.groupIdx = make(map[groupKey]int, nGroups)
	for gi := 0; gi < nGroups && rd.Err() == nil; gi++ {
		rule, ok := groupRule(rd.Str("group key"))
		key := groupKey{rule, factor.VarID(rd.I64("group head")), factor.WeightID(rd.I64("group weight"))}
		sem := factor.Semantics(rd.U8("group sem"))
		if rd.Err() == nil && (!ok || uint(key.head) >= uint(len(g.vars))) {
			rd.Fail("group key")
		}
		gs := g.addGroup(key, sem)
		nGnds := rd.Count(32, "grounding count")
		if nGnds > len(gs.one) {
			gs.gnds = cut(&g.slab.order, nGnds)[:0]
		}
		for k := 0; k < nGnds && rd.Err() == nil; k++ {
			gnd := &cut(&g.slab.gnds, 1)[0]
			gnd.key = rd.Str("grounding key")
			gnd.count = int(rd.I64("grounding count"))
			gnd.flatID = int32(rd.I64("grounding flatID"))
			enc = rd.AppendI32s(enc[:0], "grounding lits")
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
	if len(g.live) != len(g.vars) || len(g.evTrue) != len(g.vars) || len(g.evFalse) != len(g.vars) {
		return fmt.Errorf("ground: corrupt variable tables in snapshot")
	}
	g.lastGraph = cur
	g.graphDirty = cur == nil
	return nil
}

// MarkGraphDirty forces the next Graph() call to rebuild the flat
// pools from the grounding tables — the compaction pass the checkpoint
// writer uses to fold patch overflow rows into a frozen base before
// serializing.
func (g *Grounder) MarkGraphDirty() { g.graphDirty = true }
