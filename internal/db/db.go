// Package db is the relational substrate DeepDive runs on — the role
// Postgres/Greenplum play in the paper. It provides named relations with
// counted multiset semantics (the derivation counts DRed incremental view
// maintenance needs), hash indexes maintained in place, and compiled
// conjunctive-query plans used by grounding (plan.go).
//
// Counted semantics: every distinct tuple carries a derivation count. A
// tuple is *visible* while its count is positive. Inserting an existing
// tuple increments the count; deleting decrements it. The boolean returns
// of Insert/Delete report visibility transitions, which is exactly the
// delta stream downstream rules consume.
//
// Passes: an incremental grounding pass brackets its mutations with
// BeginPass. Every row remembers the parity of its visibility toggles in
// the current pass, so the relation's state at the start of the pass (the
// DRed "old" state) is answerable from the live rows and indexes —
// old-visible = visible XOR toggled an odd number of times — with no copy.
package db

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Value is a single column value. DeepDive stores everything as strings
// (identifiers, text spans, feature keys); numeric experiments encode
// numbers with strconv.
type Value = string

// Tuple is one row.
type Tuple []Value

// keySep separates column values in tuple and index keys.
const keySep = 0x1f

// Key returns the canonical map key of a tuple. Column values may contain
// any bytes except the 0x1f unit separator.
func (t Tuple) Key() string { return strings.Join(t, "\x1f") }

// AppendKey appends the tuple's canonical key to buf. Lookups through
// m[string(buf)] on the result do not allocate.
func (t Tuple) AppendKey(buf []byte) []byte {
	for i, v := range t {
		if i > 0 {
			buf = append(buf, keySep)
		}
		buf = append(buf, v...)
	}
	return buf
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// String renders the tuple for debugging.
func (t Tuple) String() string { return "(" + strings.Join(t, ", ") + ")" }

// TupleFromKey reverses Tuple.Key.
func TupleFromKey(k string) Tuple { return strings.Split(k, "\x1f") }

// Row is a stored tuple with its derivation count.
type Row struct {
	Tuple Tuple
	Count int
	// flip is pass<<1|parity: the parity of this row's visibility toggles
	// in the pass that last toggled it.
	flip uint64
}

// Relation is a named, counted multiset of tuples with hash indexes.
// Iteration order is insertion order of first appearance, which keeps
// every downstream computation deterministic; a tuple whose count returns
// from zero before its tombstone is compacted away reappears in its
// original position.
//
// Concurrency: mutations (Insert/Delete/Clear/BeginPass) require
// exclusive access, but any number of goroutines may read (Each, Tuples,
// Lookup, Plan.Run) concurrently between mutations. Reads take no lock;
// only IndexOn, which may build a new index, serializes on idxMu.
type Relation struct {
	name    string
	cols    []string
	rows    map[string]*Row
	order   []*Row // first-insertion order; may contain dead (count 0) rows
	live    int    // visible rows
	dead    int    // dead rows in order
	pinned  int    // dead rows that died this pass: the old-state view still shows them
	pass    uint64 // current pass number (see BeginPass)
	version uint64 // bumped on every visibility change
	idxMu   sync.Mutex
	indexes []*Index
}

// NewRelation creates an empty relation with the given column names.
func NewRelation(name string, cols ...string) *Relation {
	return &Relation{
		name: name,
		cols: append([]string(nil), cols...),
		rows: make(map[string]*Row),
	}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Cols returns the column names (shared slice; do not mutate).
func (r *Relation) Cols() []string { return r.cols }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.cols) }

// Len returns the number of visible (count > 0) distinct tuples.
func (r *Relation) Len() int { return r.live }

// Accepts reports why t cannot be stored in r — the wrong number of
// columns, or a value holding the 0x1f byte tuple keys are joined with —
// or nil. Mutations panic on a wrong arity: callers taking tuples from
// outside the program check them here first.
func (r *Relation) Accepts(t Tuple) error {
	if len(t) != len(r.cols) {
		return fmt.Errorf("%s has %d columns, tuple %q has %d", r.name, len(r.cols), []string(t), len(t))
	}
	for _, v := range t {
		if strings.IndexByte(v, keySep) >= 0 {
			return fmt.Errorf("%s: value %q contains the reserved byte 0x1f", r.name, v)
		}
	}
	return nil
}

func (r *Relation) checkArity(t Tuple) {
	if len(t) != len(r.cols) {
		panic(fmt.Sprintf("db: %s: tuple arity %d, want %d", r.name, len(t), len(r.cols)))
	}
}

// BeginPass starts a new pass: the old-state view (Plan atoms compiled
// with old=true) now answers with the relation's state as of this call.
func (r *Relation) BeginPass() {
	r.pass++
	r.pinned = 0
}

// toggledOdd reports whether row's visibility toggled an odd number of
// times in the current pass.
func (r *Relation) toggledOdd(row *Row) bool { return row.flip == r.pass<<1|1 }

// visible reports whether row is visible in the live state (old=false)
// or was visible when the current pass began (old=true).
func (r *Relation) visible(row *Row, old bool) bool {
	return (row.Count > 0) != (old && r.toggledOdd(row))
}

// find returns the row stored for t, or nil.
func (r *Relation) find(t Tuple) *Row {
	var a [128]byte
	return r.rows[string(t.AppendKey(a[:0]))]
}

// Insert adds one derivation of t and reports whether the tuple became
// visible (count went 0 → 1).
func (r *Relation) Insert(t Tuple) bool { return r.InsertN(t, 1) }

// InsertN adds n derivations (n may be negative for deletion) and reports
// whether visibility changed in either direction. Indexes are maintained
// in place: a first-seen tuple is appended to its bucket of every built
// index; a tuple that dies stays in its buckets as a tombstone (lookups
// skip it), so a revival needs no index work and lands in its original
// slot.
func (r *Relation) InsertN(t Tuple, n int) bool {
	r.checkArity(t)
	if n == 0 {
		return false
	}
	row := r.find(t)
	fresh := row == nil
	if fresh {
		row = &Row{Tuple: t.Clone()}
		r.rows[row.Tuple.Key()] = row
		r.order = append(r.order, row)
		for _, ix := range r.indexes {
			ix.add(row)
		}
	}
	was := row.Count > 0
	row.Count += n
	if row.Count < 0 {
		// Deleting more derivations than exist is a logic error upstream.
		panic(fmt.Sprintf("db: %s: negative count for %v", r.name, t))
	}
	now := row.Count > 0
	if was == now {
		return false
	}
	r.version++
	wasOdd := r.toggledOdd(row)
	row.flip = r.pass << 1
	if !wasOdd {
		row.flip |= 1
	}
	if now {
		r.live++
		if !fresh {
			r.dead--
			if wasOdd {
				r.pinned--
			}
		}
	} else {
		r.live--
		r.dead++
		if !wasOdd {
			r.pinned++
		}
		r.maybeCompact()
	}
	return true
}

// maybeCompact drops dead rows from the iteration order (and the indexes)
// once they dominate. Rows that died in the current pass are kept — the
// old-state view still enumerates them — and do not count towards the
// trigger, so a pass that deletes most of a relation compacts it on a
// later pass instead of rescanning it on every delete.
func (r *Relation) maybeCompact() {
	droppable := r.dead - r.pinned
	if droppable <= 64 || droppable*2 < len(r.order) {
		return
	}
	var a [128]byte
	keep := r.order[:0]
	for _, row := range r.order {
		if row.Count > 0 || r.toggledOdd(row) {
			keep = append(keep, row)
		} else {
			delete(r.rows, string(row.Tuple.AppendKey(a[:0])))
		}
	}
	clear(r.order[len(keep):])
	r.order = keep
	r.dead = r.pinned
	for _, ix := range r.indexes {
		ix.rebuild()
	}
}

// Delete removes one derivation of t and reports whether the tuple became
// invisible (count went 1 → 0). Deleting an absent tuple panics.
func (r *Relation) Delete(t Tuple) bool {
	r.checkArity(t)
	if row := r.find(t); row == nil || row.Count == 0 {
		panic(fmt.Sprintf("db: %s: delete of absent tuple %v", r.name, t))
	}
	return r.InsertN(t, -1)
}

// Contains reports whether t is visible.
func (r *Relation) Contains(t Tuple) bool { return r.Count(t) > 0 }

// Count returns the derivation count of t (0 when absent).
func (r *Relation) Count(t Tuple) int {
	if row := r.find(t); row != nil {
		return row.Count
	}
	return 0
}

// Each visits every visible tuple in first-insertion order. Returning
// false from f stops the walk. f must not mutate the relation.
func (r *Relation) Each(f func(Tuple) bool) {
	for _, row := range r.order {
		if row.Count > 0 && !f(row.Tuple) {
			return
		}
	}
}

// Tuples returns all visible tuples in deterministic order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.live)
	for _, row := range r.order {
		if row.Count > 0 {
			out = append(out, row.Tuple)
		}
	}
	return out
}

// Clear removes every tuple. Built indexes stay registered (compiled
// plans hold handles to them) and are emptied.
func (r *Relation) Clear() {
	r.rows = make(map[string]*Row)
	r.order = nil
	r.live, r.dead, r.pinned = 0, 0, 0
	r.version++
	for _, ix := range r.indexes {
		ix.rebuild()
	}
}

// Index is a hash index on a subset of columns, maintained in place by
// the relation's mutations. A bucket lists its rows — dead ones included,
// until compaction — in the relation's first-insertion order, so the
// enumeration of a bucket is exactly what a rebuild from scratch, or a
// relation restored from its snapshot, would yield.
type Index struct {
	rel     *Relation
	cols    []int
	buckets map[string]*bucket
	spare   []bucket // the unused rest of the chunk buckets are cut from
}

// bucket is boxed so that appending to an existing bucket is a lookup
// (no key allocation) rather than a map assignment. A bucket's first row
// is stored in the bucket itself — on a key column that is every row — and
// buckets are allocated in chunks, so an index costs the collector a few
// objects per hundred keys rather than three per key.
type bucket struct {
	rows []*Row
	one  [1]*Row
}

// IndexOn returns (building it on first use) the index on the given
// column positions. Building requires that no mutation is in flight, like
// any read.
func (r *Relation) IndexOn(cols ...int) *Index {
	for _, c := range cols {
		if c < 0 || c >= len(r.cols) {
			panic(fmt.Sprintf("db: %s: index column %d out of range", r.name, c))
		}
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	for _, ix := range r.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	ix := &Index{rel: r, cols: append([]int(nil), cols...)}
	ix.rebuild()
	r.indexes = append(r.indexes, ix)
	return ix
}

// rebuild refills the buckets from the relation's row order.
func (ix *Index) rebuild() {
	ix.buckets, ix.spare = make(map[string]*bucket), nil
	for _, row := range ix.rel.order {
		ix.add(row)
	}
}

// add appends row to its bucket.
func (ix *Index) add(row *Row) {
	var a [128]byte
	key := a[:0]
	for i, c := range ix.cols {
		if i > 0 {
			key = append(key, keySep)
		}
		key = append(key, row.Tuple[c]...)
	}
	b := ix.buckets[string(key)]
	if b == nil {
		if len(ix.spare) == 0 {
			ix.spare = make([]bucket, min(max(8, len(ix.buckets)/2), 512))
		}
		b, ix.spare = &ix.spare[0], ix.spare[1:]
		b.rows = b.one[:0]
		if len(ix.cols) == 1 {
			ix.buckets[row.Tuple[ix.cols[0]]] = b // the row's own string: no key to allocate
		} else {
			ix.buckets[string(key)] = b
		}
	}
	b.rows = append(b.rows, row)
}

// probe returns the bucket for an index key (the indexed column values
// joined by the key separator). The rows may be dead; callers filter by
// visibility. Lock-free and allocation-free.
func (ix *Index) probe(key []byte) []*Row {
	if b := ix.buckets[string(key)]; b != nil {
		return b.rows
	}
	return nil
}

// Lookup returns the visible tuples whose indexed columns equal vals, in
// the relation's iteration order.
func (ix *Index) Lookup(vals ...Value) []Tuple {
	if len(vals) != len(ix.cols) {
		panic(fmt.Sprintf("db: index lookup with %d values, want %d", len(vals), len(ix.cols)))
	}
	var a [128]byte
	var out []Tuple
	for _, row := range ix.probe(Tuple(vals).AppendKey(a[:0])) {
		if row.Count > 0 {
			out = append(out, row.Tuple)
		}
	}
	return out
}

// Database is a named collection of relations.
type Database struct {
	rels  map[string]*Relation
	names []string
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Create adds a new empty relation. Creating a duplicate name errors.
func (d *Database) Create(name string, cols ...string) (*Relation, error) {
	if _, ok := d.rels[name]; ok {
		return nil, fmt.Errorf("db: relation %q already exists", name)
	}
	r := NewRelation(name, cols...)
	d.rels[name] = r
	d.names = append(d.names, name)
	return r, nil
}

// MustCreate is Create that panics on error.
func (d *Database) MustCreate(name string, cols ...string) *Relation {
	r, err := d.Create(name, cols...)
	if err != nil {
		panic(err)
	}
	return r
}

// Relation returns a relation by name, or nil when absent.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// Has reports whether a relation exists.
func (d *Database) Has(name string) bool { return d.rels[name] != nil }

// Names returns relation names in creation order.
func (d *Database) Names() []string { return append([]string(nil), d.names...) }

// SortedNames returns relation names alphabetically.
func (d *Database) SortedNames() []string {
	out := append([]string(nil), d.names...)
	sort.Strings(out)
	return out
}

// BeginPass starts a new pass on every relation.
func (d *Database) BeginPass() {
	for _, name := range d.names {
		d.rels[name].BeginPass()
	}
}

// TotalTuples returns the number of visible tuples across all relations.
func (d *Database) TotalTuples() int {
	n := 0
	for _, name := range d.names {
		n += d.rels[name].Len()
	}
	return n
}
