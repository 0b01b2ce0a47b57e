package db

import (
	"fmt"
	"slices"

	"deepdive/internal/idtab"
	"deepdive/internal/persist"
)

// AppendSnapshot encodes the symbol table: its values in id order.
func (s *Symbols) AppendSnapshot(b *persist.Buf) { b.Strs(s.text) }

// RestoreSnapshot replaces the table with one written by AppendSnapshot.
// Ids handed out before are void: only a table whose relations are still
// empty may be restored, and whatever compiled against it (rule constants)
// must compile again. A table holding a value twice is refused.
func (s *Symbols) RestoreSnapshot(rd *persist.Rd) error {
	text := rd.Strs("symbols")
	if err := rd.Err(); err != nil {
		return err
	}
	ids := make(map[string]Sym, len(text))
	for i, v := range text {
		if _, dup := ids[v]; dup {
			return fmt.Errorf("db: snapshot symbol table holds %q twice", v)
		}
		ids[v] = Sym(i)
	}
	s.text, s.ids = text, ids
	return nil
}

// Snapshot codec for Relation. The full row storage is persisted —
// including tombstoned count-0 rows — because first-insertion order is
// the iteration order every downstream computation (grounding, delta
// evaluation) keys off; dropping dead rows on save would change where
// future compaction fires and thus perturb replay determinism. Rows are
// ids of the database's symbol table, which is persisted beside them.
func (r *Relation) AppendSnapshot(b *persist.Buf) {
	b.Str(r.name)
	b.Strs(r.cols)
	b.U64(r.version)
	b.U32s(r.cells)
	b.I32s(r.counts)
}

// RestoreSnapshot decodes rows written by AppendSnapshot into r, which
// must be freshly created (same name and columns, no rows yet) over the
// restored symbol table. Indexes already built on r (compiled plans hold
// handles to them) are refilled. Rows naming an id past the table, a
// negative count or a row stored twice are refused.
func (r *Relation) RestoreSnapshot(rd *persist.Rd) error {
	if len(r.counts) != 0 {
		return fmt.Errorf("db: RestoreSnapshot into non-empty relation %s", r.name)
	}
	name := rd.Str("relation name")
	cols := rd.Strs("relation cols")
	if rd.Err() == nil && (name != r.name || !slices.Equal(cols, r.cols)) {
		return fmt.Errorf("db: snapshot relation %s(%v) does not match declared %s(%v)",
			name, cols, r.name, r.cols)
	}
	r.version = rd.U64("relation version")
	cells := rd.U32s("relation rows")
	counts := rd.I32s("relation counts")
	if err := rd.Err(); err != nil {
		return err
	}
	if len(cells) != len(counts)*r.arity {
		return fmt.Errorf("db: corrupt snapshot of relation %s: %d ids for %d rows of %d columns", r.name, len(cells), len(counts), r.arity)
	}
	for _, id := range cells {
		if int(id) >= r.syms.Len() {
			return fmt.Errorf("db: corrupt snapshot of relation %s: symbol %d of %d", r.name, id, r.syms.Len())
		}
	}
	r.cells, r.counts, r.flips = cells, counts, make([]uint64, len(counts))
	r.rows.Reset(len(counts))
	for pos, c := range counts {
		row := r.row(int32(pos))
		h := idtab.Hash(row)
		if _, dup := r.lookup(&r.rows, nil, row, h); dup || c < 0 {
			r.cells, r.counts, r.flips = nil, nil, nil
			r.rows.Reset(0)
			return fmt.Errorf("db: corrupt snapshot row %v (count %d) in relation %s", r.syms.Tuple(row), c, r.name)
		}
		r.rows.Place(h, int32(pos), 0)
		if c > 0 {
			r.live++
		} else {
			r.dead++
		}
	}
	for _, ix := range r.indexes {
		ix.rebuild()
	}
	return nil
}
