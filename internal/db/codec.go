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
	// Rows, their column values and their keys are cut from one slab each:
	// a restored relation is a handful of objects, not a handful per row.
	n := rd.Count(16, "relation row count")
	arity := len(r.cols)
	slab, cells := make([]Row, n), make([]string, n*arity)
	keyBytes := 0
	for i := range slab {
		count := rd.I64("row count")
		tup := Tuple(cells[i*arity : (i+1)*arity : (i+1)*arity])
		rd.StrsInto(tup, "row tuple")
		if rd.Err() != nil {
			return rd.Err()
		}
		if count < 0 {
			return fmt.Errorf("db: corrupt snapshot row %v (count %d) in relation %s", tup, count, r.name)
		}
		slab[i] = Row{Tuple: tup, Count: int(count)}
		keyBytes += max(arity-1, 0)
		for _, v := range tup {
			keyBytes += len(v)
		}
	}
	keys, ends := make([]byte, 0, keyBytes), make([]int, n)
	for i := range slab {
		keys = slab[i].Tuple.AppendKey(keys)
		ends[i] = len(keys)
	}
	allKeys, start := string(keys), 0
	r.rows = make(map[string]*Row, n)
	r.order = make([]*Row, n, n+n/8)
	for i := range slab {
		row, key := &slab[i], allKeys[start:ends[i]]
		start = ends[i]
		if r.rows[key] != nil {
			return fmt.Errorf("db: corrupt snapshot row %v (count %d) in relation %s", row.Tuple, row.Count, r.name)
		}
		r.rows[key] = row
		r.order[i] = row
		if row.Count > 0 {
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
