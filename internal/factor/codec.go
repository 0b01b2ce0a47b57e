package factor

import (
	"fmt"
	"math"
	"slices"

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
// conditional caches, which start cold after a restart anyway. In a KB's
// checkpoint image the codec carries only the engine's Pr(0): a past
// grounding, which the grounder cannot rebuild as it does the served graph.
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

// DecodeGraphSnapshot rebuilds a graph from r. The image is checked as it
// is read: counts out of range, offsets that are not monotone or leave
// their pools, variable, weight, group and grounding ids past their
// tables, and semantics tables other than the ones the groups' grounding
// counts make are refused, so every accepted image decodes to a graph its
// evaluators can walk and re-encodes to exactly that image. What the
// decoder allocates is bounded by the image's size: every count is checked
// against the bytes left to back it, and the semantics tables it rebuilds
// are the size of the ones the image carries.
func DecodeGraphSnapshot(r *persist.Rd) (*Graph, error) {
	if v := r.U8("graph version"); r.Err() == nil && v != graphCodecVersion {
		return nil, fmt.Errorf("factor: unsupported graph codec version %d", v)
	}
	numVars, nGnd := r.I64("numVars"), r.I64("nGnd")
	nDead, nExtra, epoch := r.I64("nDead"), r.I64("nExtra"), r.I64("epoch")
	if r.Err() == nil && (numVars < 0 || numVars > math.MaxInt32 || nGnd < 0 || nGnd > math.MaxInt32 ||
		nDead < 0 || nDead > nGnd || nExtra < 0 || nExtra > nGnd || epoch < 0 || epoch > math.MaxInt32) {
		return nil, fmt.Errorf("factor: graph snapshot: counts out of range: %d vars, %d groundings (%d dead, %d in overflow rows), epoch %d",
			numVars, nGnd, nDead, nExtra, epoch)
	}
	g := &Graph{numVars: int(numVars), nGnd: int(nGnd), nDead: int(nDead), nExtra: int(nExtra), epoch: int32(epoch)}
	g.evidence = r.Bools("evidence")
	g.evValue = r.Bools("evValue")
	g.weights = r.F64s("weights")
	g.groupHead = r.I32s("groupHead")
	g.groupWeight = r.I32s("groupWeight")
	semRaw := r.I32s("groupSem")
	g.groupSem = make([]Semantics, len(semRaw))
	for i, s := range semRaw {
		if s < 0 || s >= numSemantics {
			return nil, fmt.Errorf("factor: graph snapshot: group %d has unknown semantics %d", i, s)
		}
		g.groupSem[i] = Semantics(s)
	}
	g.gndOff = r.I32s("gndOff")
	g.litOff = r.I32s("litOff")
	g.lits = r.I32s("lits")
	g.bodyOff = r.I32s("bodyOff")
	g.bodyRecs = unpackBodyRecs(r, "bodyRecs")
	g.adjOff = r.I32s("adjOff")
	g.adjGroups = r.I32s("adjGroups")
	semOff := r.I32s("semOff") // derived: see groupSemTables
	semTab := r.F64s("semTab")
	g.nbrOff = r.I32s("nbrOff")
	g.nbrs = r.I32s("nbrs")
	g.nbrExtra = decodeRows(r, "nbrExtra")
	if r.Bool("deadAt present") {
		g.deadAt = r.I32s("deadAt")
		if g.deadAt == nil { // present but empty: preserve non-nil-ness
			g.deadAt = []int32{}
		}
	}
	g.gndExtra = decodeRows(r, "gndExtra")
	g.bodyExtra = decodeBodyRows(r, "bodyExtra")
	g.adjExtra = decodeRows(r, "adjExtra")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := g.checkDecoded(); err != nil {
		return nil, fmt.Errorf("factor: graph snapshot: %w", err)
	}
	if err := g.restoreSemTables(semOff, semTab); err != nil {
		return nil, fmt.Errorf("factor: graph snapshot: %w", err)
	}
	return g, nil
}

// checkDecoded checks that every table of a decoded graph has the length
// its counts give it, every offset array starts at 0, never decreases and
// ends inside (for the frozen groundings) or at the end of its pool, and
// every id indexes its table.
func (g *Graph) checkDecoded() error {
	nv, nG, nGnd := g.numVars, len(g.groupHead), g.nGnd
	if len(g.evidence) != nv || len(g.evValue) != nv {
		return fmt.Errorf("%d vars, %d evidence flags, %d values", nv, len(g.evidence), len(g.evValue))
	}
	if len(g.groupWeight) != nG || len(g.groupSem) != nG {
		return fmt.Errorf("%d group heads, %d weights, %d semantics", nG, len(g.groupWeight), len(g.groupSem))
	}
	if bad := outside(g.groupHead, nv); bad >= 0 {
		return fmt.Errorf("group %d: head %d of %d vars", bad, g.groupHead[bad], nv)
	}
	if bad := outside(g.groupWeight, len(g.weights)); bad >= 0 {
		return fmt.Errorf("group %d: weight %d of %d", bad, g.groupWeight[bad], len(g.weights))
	}
	if len(g.gndOff) != nG+1 || !offsets(g.gndOff, nGnd, false) {
		return fmt.Errorf("%d groups, grounding offsets %d long or outside %d groundings", nG, len(g.gndOff), nGnd)
	}
	if len(g.litOff) != nGnd+1 || !offsets(g.litOff, len(g.lits), true) {
		return fmt.Errorf("%d groundings, literal offsets %d long or not ending at %d literals", nGnd, len(g.litOff), len(g.lits))
	}
	for i, l := range g.lits {
		if l < 0 || int(l>>1) >= nv {
			return fmt.Errorf("literal %d: var %d of %d", i, l>>1, nv)
		}
	}
	if len(g.bodyOff) != nv+1 || !offsets(g.bodyOff, len(g.bodyRecs), true) {
		return fmt.Errorf("occurrence offsets %d long for %d vars or not ending at %d records", len(g.bodyOff), nv, len(g.bodyRecs))
	}
	if err := checkOccs(g.bodyRecs, nG, nGnd); err != nil {
		return err
	}
	if len(g.adjOff) != nv+1 || !offsets(g.adjOff, len(g.adjGroups), true) || outside(g.adjGroups, nG) >= 0 {
		return fmt.Errorf("adjacency: %d offsets for %d vars, or a group past %d", len(g.adjOff), nv, nG)
	}
	if len(g.nbrOff) != nv+1 || !offsets(g.nbrOff, len(g.nbrs), true) || outside(g.nbrs, nv) >= 0 {
		return fmt.Errorf("blanket: %d offsets for %d vars, or a var past %d", len(g.nbrOff), nv, nv)
	}
	if g.deadAt != nil && len(g.deadAt) < nGnd {
		return fmt.Errorf("%d tombstone epochs for %d groundings", len(g.deadAt), nGnd)
	}
	for _, t := range []struct {
		what string
		rows paged[[]int32]
		n    int // rows
		ids  int // the bound on their entries
	}{{"blanket overflow", g.nbrExtra, nv, nv}, {"grounding overflow", g.gndExtra, nG, nGnd}, {"adjacency overflow", g.adjExtra, nv, nG}} {
		if !t.rows.present() {
			continue
		}
		if t.rows.n != t.n {
			return fmt.Errorf("%s: %d rows, want %d", t.what, t.rows.n, t.n)
		}
		for i := range int32(t.n) {
			if outside(t.rows.at(i), t.ids) >= 0 {
				return fmt.Errorf("%s: row %d holds an id past %d", t.what, i, t.ids)
			}
		}
	}
	if g.bodyExtra.present() {
		if g.bodyExtra.n != nv {
			return fmt.Errorf("occurrence overflow: %d rows, want %d", g.bodyExtra.n, nv)
		}
		for v := range int32(nv) {
			if err := checkOccs(g.bodyExtra.at(v), nG, nGnd); err != nil {
				return err
			}
		}
	}
	return nil
}

// outside returns the index of the first id of ids outside [0, n), or -1.
func outside(ids []int32, n int) int {
	return slices.IndexFunc(ids, func(id int32) bool { return id < 0 || int(id) >= n })
}

// offsets reports whether off starts at 0, never decreases and ends at n
// (exact) or at most at n.
func offsets(off []int32, n int, exact bool) bool {
	if len(off) == 0 || off[0] != 0 {
		return false
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return false
		}
	}
	last := int(off[len(off)-1])
	return last == n || !exact && last < n
}

func checkOccs(recs []bodyOcc, nG, nGnd int) error {
	for _, rec := range recs {
		if rec.group < 0 || int(rec.group) >= nG || rec.gnd < 0 || int(rec.gnd) >= nGnd {
			return fmt.Errorf("occurrence record of group %d, grounding %d: past %d groups or %d groundings", rec.group, rec.gnd, nG, nGnd)
		}
	}
	return nil
}

// restoreSemTables rebuilds the per-semantics tables of g(n) from the
// groups' grounding counts and checks the image's per-group layout of
// them (groupSemTables) is exactly what they give. The layout's length is
// checked before a table grows: the tables are never longer than the
// image's.
func (g *Graph) restoreSemTables(semOff []int32, semTab []float64) error {
	if len(semOff) != len(g.groupSem) {
		return fmt.Errorf("%d semantics offsets for %d groups", len(semOff), len(g.groupSem))
	}
	at := 0
	for gi := range int32(len(g.groupSem)) {
		if int(semOff[gi]) != at {
			return fmt.Errorf("group %d: semantics offset %d, want %d", gi, semOff[gi], at)
		}
		at += g.gndCount(gi) + 1
		if at > len(semTab) {
			return fmt.Errorf("semantics tables: %d values, the groups need more", len(semTab))
		}
	}
	if at != len(semTab) {
		return fmt.Errorf("semantics tables: %d values, the groups need %d", len(semTab), at)
	}
	for gi, sem := range g.groupSem {
		n := g.gndCount(int32(gi))
		g.semGrow(sem, n)
		tab := semTab[semOff[gi] : int(semOff[gi])+n+1]
		for k, v := range tab {
			if math.Float64bits(v) != math.Float64bits(g.semTabs[sem][k]) {
				return fmt.Errorf("group %d: g(%d) stored as %v, want %v", gi, k, v, g.semTabs[sem][k])
			}
		}
	}
	return nil
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

// unpackBodyRecs reads records packBodyRecs wrote.
func unpackBodyRecs(r *persist.Rd, what string) []bodyOcc {
	raw := r.I32s(what)
	if len(raw)%3 != 0 {
		r.Fail(what + " record width")
		return nil
	}
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

// decodeRows reads a CSR overflow table into a paged table (absent when
// the image says so). Rows are three-index subslices of one backing array
// (len == cap), so a later append to a row reallocates instead of
// clobbering its neighbor. Offsets must be what appendRows writes: from 0,
// never decreasing, to the end of the flat array.
func decodeRows(r *persist.Rd, what string) paged[[]int32] {
	if !r.Bool(what + " present") {
		return paged[[]int32]{}
	}
	return cutRows(r, r.I32s(what+" offsets"), r.I32s(what+" flat"), what)
}

// cutRows cuts the rows of a CSR table out of its flat array.
func cutRows[T any](r *persist.Rd, off []int32, flat []T, what string) paged[[]T] {
	if r.Err() != nil || !offsets(off, len(flat), true) {
		r.Fail(what + " row bounds")
		return paged[[]T]{}
	}
	t, rows := newPaged[[]T](len(off) - 1)
	for i := range rows {
		if a, b := off[i], off[i+1]; a < b {
			rows[i] = flat[a:b:b]
		}
	}
	return t
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

func decodeBodyRows(r *persist.Rd, what string) paged[[]bodyOcc] {
	if !r.Bool(what + " present") {
		return paged[[]bodyOcc]{}
	}
	return cutRows(r, r.I32s(what+" offsets"), unpackBodyRecs(r, what+" flat"), what)
}
