package db

import (
	"fmt"
	"slices"

	"deepdive/internal/persist"
)

// Snapshot codec for Relation. The full `order` walk is persisted —
// including tombstoned count-0 rows — because first-insertion order is
// the iteration order every downstream computation (grounding, delta
// evaluation) keys off; dropping dead keys on save would change where
// future compaction fires and thus perturb replay determinism.
func (r *Relation) AppendSnapshot(b *persist.Buf) {
	b.Str(r.name)
	b.Strs(r.cols)
	b.U64(r.version)
	b.U64(uint64(len(r.order)))
	for _, row := range r.order {
		b.I64(int64(row.Count))
		b.Strs(row.Tuple)
	}
}

// RestoreSnapshot decodes rows written by AppendSnapshot into r, which
// must be freshly created (same name and columns, no rows yet). Indexes
// already built on r (compiled plans hold handles to them) are refilled.
func (r *Relation) RestoreSnapshot(rd *persist.Rd) error {
	if len(r.rows) != 0 || len(r.order) != 0 {
		return fmt.Errorf("db: RestoreSnapshot into non-empty relation %s", r.name)
	}
	name := rd.Str("relation name")
	cols := rd.Strs("relation cols")
	if rd.Err() == nil && (name != r.name || !slices.Equal(cols, r.cols)) {
		return fmt.Errorf("db: snapshot relation %s(%v) does not match declared %s(%v)",
			name, cols, r.name, r.cols)
	}
	r.version = rd.U64("relation version")
	n := rd.U64("relation row count")
	for i := uint64(0); i < n && rd.Err() == nil; i++ {
		count := rd.I64("row count")
		tup := Tuple(rd.Strs("row tuple"))
		if rd.Err() != nil {
			break
		}
		if len(tup) != len(r.cols) || count < 0 || r.find(tup) != nil {
			return fmt.Errorf("db: corrupt snapshot row %v (count %d) in relation %s", tup, count, r.name)
		}
		row := &Row{Tuple: tup, Count: int(count)}
		r.rows[tup.Key()] = row
		r.order = append(r.order, row)
		if count > 0 {
			r.live++
		} else {
			r.dead++
		}
	}
	for _, ix := range r.indexes {
		ix.rebuild()
	}
	return rd.Err()
}
