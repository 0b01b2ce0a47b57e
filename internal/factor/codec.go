package factor

import "deepdive/internal/persist"

// Snapshot encoding of a Graph. Every field that defines the graph's
// view — frozen CSR pools, patch overflow rows, tombstone epochs — is
// written verbatim, so two graphs encode to the same bytes exactly when
// the same groundings are live, the same evaluation order is walked, and a
// subsequent Patch produces the same patched graph: the layout digests
// the tests pin are taken over it. The large pools are written as raw
// little-endian dumps; only bodyOcc records are re-packed, into 3 int32
// words per record. weightGen is not written: it only versions the
// conditional caches. Nothing decodes the encoding: a KB's checkpoint
// image carries no graph (recovery rebuilds the served graph from the
// grounding and re-materializes the engine's Pr(0) on it).
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
	appendRows(b, g.nbrExtra)
	b.Bool(g.deadAt != nil)
	if g.deadAt != nil {
		b.I32s(g.deadAt)
	}
	appendRows(b, g.gndExtra)
	appendBodyRows(b, g.bodyExtra)
	appendRows(b, g.adjExtra)
}

// gndCount is group gi's grounding count, tombstones included: the bound
// on its support.
func (g *Graph) gndCount(gi int32) int {
	return int(g.gndOff[gi+1]-g.gndOff[gi]) + len(g.extraGnds(gi))
}

// groupSemTables lays the semantics values out per group — g(0..count) at
// semTab[semOff[gi]:] — which is how the encoding writes them (the graph
// itself keeps one table per semantics).
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

// appendBodyRows: the same CSR treatment for the per-variable bodyOcc
// overflow rows.
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
