package db

import "fmt"

// Text forms of the relation mutations and the index lookup: the tests
// speak tuples of text, as the grounder's callers do, and go through the
// ids underneath.

// Insert adds one derivation of t, interning its values, and reports
// whether the tuple became visible (count went 0 → 1).
func (r *Relation) Insert(t Tuple) bool { return r.InsertN(t, 1) }

// InsertN is InsertRow on a tuple of text, interning its values.
func (r *Relation) InsertN(t Tuple, n int) bool {
	r.checkArity(len(t))
	return r.InsertRow(r.syms.AppendIDs(nil, t), n)
}

// Delete removes one derivation of t and reports whether the tuple became
// invisible (count went 1 → 0). Deleting an absent tuple panics.
func (r *Relation) Delete(t Tuple) bool {
	r.checkArity(len(t))
	if r.Count(t) == 0 {
		panic(fmt.Sprintf("db: %s: delete of absent tuple %v", r.name, t))
	}
	return r.InsertN(t, -1)
}

// Contains reports whether t is visible.
func (r *Relation) Contains(t Tuple) bool { return r.Count(t) > 0 }

// Lookup returns the visible tuples whose indexed columns equal vals, in
// the relation's iteration order.
func (ix *Index) Lookup(vals ...Value) []Tuple {
	if len(vals) != len(ix.cols) {
		panic(fmt.Sprintf("db: index lookup with %d values, want %d", len(vals), len(ix.cols)))
	}
	key, ok := ix.rel.syms.FindIDs(nil, vals)
	if !ok {
		return nil
	}
	var out []Tuple
	for pos := ix.first(key); pos >= 0; pos = ix.next[pos] {
		if ix.rel.counts[pos] > 0 {
			out = append(out, ix.rel.syms.Tuple(ix.rel.row(pos)))
		}
	}
	return out
}
