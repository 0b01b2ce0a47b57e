package factor

import (
	"fmt"

	"deepdive/internal/persist"
)

// Snapshot codec for Graph. Every field that defines the graph's view —
// frozen CSR pools, patch overflow rows, tombstone epochs — is written
// verbatim, so a decoded graph is semantically indistinguishable from
// the original: the same groundings are live, the same evaluation order
// is walked, and a subsequent Patch produces the same derived graph.
// The large pools are written as raw little-endian dumps (one memmove
// each on LE hosts); only bodyOcc records are re-packed, into 3 int32
// words per record. weightGen is not persisted: it only versions the
// conditional caches, which start cold after a restart anyway.
const graphCodecVersion = 1

// AppendSnapshot encodes the graph into b.
func (g *Graph) AppendSnapshot(b *persist.Buf) {
	b.U8(graphCodecVersion)
	b.I64(int64(g.numVars))
	b.I64(int64(g.nGnd))
	b.I64(int64(g.nDead))
	b.I64(int64(g.nExtra))
	b.I64(int64(g.epoch))
	b.Bools(g.evidence)
	b.Bools(g.evValue)
	b.F64s(g.weights)
	b.I32s(g.groupHead)
	b.I32s(g.groupWeight)
	semRaw := make([]int32, len(g.groupSem))
	for i, s := range g.groupSem {
		semRaw[i] = int32(s)
	}
	b.I32s(semRaw)
	b.I32s(g.gndOff)
	b.I32s(g.litOff)
	b.I32s(g.lits)
	b.I32s(g.bodyOff)
	b.I32s(packBodyRecs(g.bodyRecs))
	b.I32s(g.adjOff)
	b.I32s(g.adjGroups)
	semOff, semTab := g.groupSemTables()
	b.I32s(semOff)
	b.F64s(semTab)
	b.I32s(g.nbrOff)
	b.I32s(g.nbrs)
	appendRows(b, g.nbrExtra.rows())
	b.Bool(g.deadAt != nil)
	if g.deadAt != nil {
		b.I32s(g.deadAt)
	}
	appendRows(b, g.gndExtra.rows())
	appendBodyRows(b, g.bodyExtra.rows())
	appendRows(b, g.adjExtra.rows())
}

// DecodeGraphSnapshot rebuilds a graph from r.
func DecodeGraphSnapshot(r *persist.Rd) (*Graph, error) {
	if v := r.U8("graph version"); r.Err() == nil && v != graphCodecVersion {
		return nil, fmt.Errorf("factor: unsupported graph codec version %d", v)
	}
	g := &Graph{}
	g.numVars = int(r.I64("numVars"))
	g.nGnd = int(r.I64("nGnd"))
	g.nDead = int(r.I64("nDead"))
	g.nExtra = int(r.I64("nExtra"))
	g.epoch = int32(r.I64("epoch"))
	g.evidence = r.Bools("evidence")
	g.evValue = r.Bools("evValue")
	g.weights = r.F64s("weights")
	g.groupHead = r.I32s("groupHead")
	g.groupWeight = r.I32s("groupWeight")
	semRaw := r.I32s("groupSem")
	g.groupSem = make([]Semantics, len(semRaw))
	for i, s := range semRaw {
		g.groupSem[i] = Semantics(s)
	}
	g.gndOff = r.I32s("gndOff")
	g.litOff = r.I32s("litOff")
	g.lits = r.I32s("lits")
	g.bodyOff = r.I32s("bodyOff")
	g.bodyRecs = unpackBodyRecs(r.I32s("bodyRecs"))
	g.adjOff = r.I32s("adjOff")
	g.adjGroups = r.I32s("adjGroups")
	r.I32s("semOff") // derived: see groupSemTables
	r.F64s("semTab")
	g.nbrOff = r.I32s("nbrOff")
	g.nbrs = r.I32s("nbrs")
	g.nbrExtra = pagedOf(decodeRows(r, "nbrExtra"))
	if r.Bool("deadAt present") {
		g.deadAt = r.I32s("deadAt")
		if g.deadAt == nil { // present but empty: preserve non-nil-ness
			g.deadAt = []int32{}
		}
	}
	g.gndExtra = pagedOf(decodeRows(r, "gndExtra"))
	g.bodyExtra = pagedOf(decodeBodyRows(r, "bodyExtra"))
	g.adjExtra = pagedOf(decodeRows(r, "adjExtra"))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(g.gndOff) != len(g.groupSem)+1 || (g.gndExtra.present() && g.gndExtra.n != len(g.groupSem)) {
		return nil, fmt.Errorf("factor: graph snapshot: %d groups, %d grounding offsets", len(g.groupSem), len(g.gndOff))
	}
	for gi, sem := range g.groupSem {
		if sem >= numSemantics {
			return nil, fmt.Errorf("factor: graph snapshot: group %d has unknown semantics %d", gi, sem)
		}
		g.semGrow(sem, g.gndCount(int32(gi)))
	}
	return g, nil
}

// gndCount is group gi's grounding count, tombstones included: the bound
// on its support.
func (g *Graph) gndCount(gi int32) int {
	return int(g.gndOff[gi+1]-g.gndOff[gi]) + len(g.extraGnds(gi))
}

// groupSemTables lays the semantics values out per group — g(0..count) at
// semTab[semOff[gi]:] — which is how the snapshot format stores them (the
// graph itself keeps one table per semantics and rebuilds it on decode).
func (g *Graph) groupSemTables() (semOff []int32, semTab []float64) {
	semOff = make([]int32, len(g.groupSem))
	semTab = make([]float64, 0, g.nGnd+len(g.groupSem))
	for gi, sem := range g.groupSem {
		semOff[gi] = int32(len(semTab))
		semTab = append(semTab, g.semTabs[sem][:g.gndCount(int32(gi))+1]...)
	}
	return semOff, semTab
}

// packBodyRecs flattens bodyOcc records into 3 int32 words each:
// group, gnd, n[0]|n[1]<<16.
func packBodyRecs(recs []bodyOcc) []int32 {
	out := make([]int32, 0, 3*len(recs))
	for _, rec := range recs {
		out = append(out, rec.group, rec.gnd,
			int32(uint32(rec.n[0])|uint32(rec.n[1])<<16))
	}
	return out
}

func unpackBodyRecs(raw []int32) []bodyOcc {
	if len(raw) == 0 {
		return nil
	}
	out := make([]bodyOcc, len(raw)/3)
	for i := range out {
		packed := uint32(raw[3*i+2])
		out[i] = bodyOcc{
			group: raw[3*i],
			gnd:   raw[3*i+1],
			n:     [2]uint16{uint16(packed & 0xFFFF), uint16(packed >> 16)},
		}
	}
	return out
}

// appendRows writes a per-row overflow table ([][]int32) in CSR form.
// A nil top-level table (unpatched graph) is distinguished from a
// present-but-all-empty one, because the patch machinery branches on
// table presence.
func appendRows(b *persist.Buf, rows [][]int32) {
	b.Bool(rows != nil)
	if rows == nil {
		return
	}
	off := make([]int32, len(rows)+1)
	total := 0
	for i, row := range rows {
		total += len(row)
		off[i+1] = int32(total)
	}
	flat := make([]int32, 0, total)
	for _, row := range rows {
		flat = append(flat, row...)
	}
	b.I32s(off)
	b.I32s(flat)
}

// decodeRows reads a CSR overflow table. Rows are three-index
// subslices of one backing array (len == cap), so a later append to a
// row reallocates instead of clobbering its neighbor.
func decodeRows(r *persist.Rd, what string) [][]int32 {
	if !r.Bool(what + " present") {
		return nil
	}
	off := r.I32s(what + " offsets")
	flat := r.I32s(what + " flat")
	if r.Err() != nil || len(off) == 0 {
		return [][]int32{}
	}
	rows := make([][]int32, len(off)-1)
	for i := range rows {
		a, b := off[i], off[i+1]
		if a < 0 || b < a || int(b) > len(flat) {
			r.Fail(what + " row bounds")
			return rows
		}
		if a < b {
			rows[i] = flat[a:b:b]
		}
	}
	return rows
}

// appendBodyRows / decodeBodyRows: the same CSR treatment for the
// per-variable bodyOcc overflow rows.
func appendBodyRows(b *persist.Buf, rows [][]bodyOcc) {
	b.Bool(rows != nil)
	if rows == nil {
		return
	}
	off := make([]int32, len(rows)+1)
	total := 0
	for i, row := range rows {
		total += len(row)
		off[i+1] = int32(total)
	}
	flat := make([]bodyOcc, 0, total)
	for _, row := range rows {
		flat = append(flat, row...)
	}
	b.I32s(off)
	b.I32s(packBodyRecs(flat))
}

func decodeBodyRows(r *persist.Rd, what string) [][]bodyOcc {
	if !r.Bool(what + " present") {
		return nil
	}
	off := r.I32s(what + " offsets")
	flat := unpackBodyRecs(r.I32s(what + " flat"))
	if r.Err() != nil || len(off) == 0 {
		return [][]bodyOcc{}
	}
	rows := make([][]bodyOcc, len(off)-1)
	for i := range rows {
		a, b := off[i], off[i+1]
		if a < 0 || b < a || int(b) > len(flat) {
			r.Fail(what + " row bounds")
			return rows
		}
		if a < b {
			rows[i] = flat[a:b:b]
		}
	}
	return rows
}
