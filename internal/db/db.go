// Package db is the relational substrate DeepDive runs on — the role
// Postgres/Greenplum play in the paper. It provides named relations with
// counted multiset semantics (the derivation counts DRed incremental view
// maintenance needs), hash indexes maintained in place, and compiled
// conjunctive-query plans used by grounding (plan.go).
//
// Symbols: a database interns every value once, in a symbol table of its
// own (Symbols: string ↔ Sym, a uint32), and relations store, index and
// join rows of fixed-width ids. Value and Tuple are boundary types — what
// loading, updates, the write-ahead log and Tuples speak — converted to ids
// on the way in and back to text on the way out. The table is append-only:
// values are interned when base tuples are applied and when rule constants
// compile, never forgotten (a compacted-away row leaves its symbols), and
// persisted with the grounder. It is read-only while compiled plans run.
//
// Counted semantics: every distinct tuple carries a derivation count. A
// tuple is *visible* while its count is positive. Inserting an existing
// tuple increments the count; deleting (a negative insert) decrements it.
// InsertRow reports visibility transitions, which is exactly the delta
// stream downstream rules consume.
//
// Passes: an incremental grounding pass brackets its mutations with
// BeginPass. Every row remembers the parity of its visibility toggles in
// the current pass, so the relation's state at the start of the pass (the
// DRed "old" state) is answerable from the live rows and indexes —
// old-visible = visible XOR toggled an odd number of times — with no copy.
package db

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"deepdive/internal/idtab"
)

// Value is a single column value as text. DeepDive stores everything as
// strings (identifiers, text spans, feature keys); numeric experiments
// encode numbers with strconv.
type Value = string

// Tuple is one row as text.
type Tuple []Value

// keySep separates column values in text tuple keys.
const keySep = 0x1f

// Key returns the canonical text key of a tuple. Column values may
// contain any bytes except the 0x1f unit separator.
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

// Sym is a value's id in its database's symbol table.
type Sym = uint32

// Symbols interns values: the first distinct value is 0, the next 1, and
// so on. Intern mutates; Text and FindIDs only read. Like the relations,
// the table has one writer: the grounder, under its caller's lock.
type Symbols struct {
	text []string
	ids  map[string]Sym
}

// NewSymbols returns an empty table.
func NewSymbols() *Symbols { return &Symbols{ids: make(map[string]Sym)} }

// Intern returns v's id, adding v to the table when it is new.
func (s *Symbols) Intern(v Value) Sym {
	if id, ok := s.ids[v]; ok {
		return id
	}
	if len(s.text) == math.MaxUint32 {
		panic("db: symbol table full")
	}
	id := Sym(len(s.text))
	s.text = append(s.text, v)
	s.ids[v] = id
	return id
}

// Text returns the value of an id.
func (s *Symbols) Text(id Sym) Value { return s.text[id] }

// Len returns the number of symbols.
func (s *Symbols) Len() int { return len(s.text) }

// Truncate forgets the symbols interned since the table held n: the undo
// of a rejected update's rule compilation, which is the only thing that
// can intern before an update is known to be accepted.
func (s *Symbols) Truncate(n int) {
	for _, v := range s.text[n:] {
		delete(s.ids, v)
	}
	clear(s.text[n:])
	s.text = s.text[:n]
}

// AppendIDs appends the ids of t's values to dst, interning new ones.
func (s *Symbols) AppendIDs(dst []Sym, t Tuple) []Sym {
	for _, v := range t {
		dst = append(dst, s.Intern(v))
	}
	return dst
}

// FindIDs appends the ids of t's values to dst; false when a value is not
// in the table (no row can hold it).
func (s *Symbols) FindIDs(dst []Sym, t Tuple) ([]Sym, bool) {
	for _, v := range t {
		id, ok := s.ids[v]
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// Tuple returns the text of a row of ids.
func (s *Symbols) Tuple(row []Sym) Tuple {
	t := make(Tuple, len(row))
	for i, id := range row {
		t[i] = s.text[id]
	}
	return t
}

// AppendKey appends the text key (Tuple.Key) of a row of ids to buf.
func (s *Symbols) AppendKey(buf []byte, row []Sym) []byte {
	for i, id := range row {
		if i > 0 {
			buf = append(buf, keySep)
		}
		buf = append(buf, s.text[id]...)
	}
	return buf
}

// Relation is a named, counted multiset of tuples with hash indexes.
// Iteration order is insertion order of first appearance, which keeps
// every downstream computation deterministic; a tuple whose count returns
// from zero before its tombstone is compacted away reappears in its
// original position.
//
// Storage is pointer-free: row i is cells[i*arity:(i+1)*arity], its count
// and pass bits sit at i of parallel slices, and the row map and every
// index are open-addressing tables of row positions keyed by the rows'
// ids (idtab.Table), so a stored tuple costs no object of its own.
//
// Concurrency: one writer. Mutations (InsertRow/Clear/BeginPass) and
// IndexOn, which may build a new index, require exclusive access; the
// grounder makes every call under its caller's lock. Reads (Tuples, Count,
// Plan.Run) take no lock and write nothing, so reads between mutations do
// not race with each other.
type Relation struct {
	name  string
	cols  []string
	arity int
	syms  *Symbols

	cells  []Sym       // rows in first-insertion order; dead (count 0) rows stay until compaction
	counts []int32     // per row: derivation count
	flips  []uint64    // per row: pass<<1|parity of its visibility toggles in the pass that last toggled it
	rows   idtab.Table // row ids → position

	live    int    // visible rows
	dead    int    // dead rows stored
	pinned  int    // dead rows that died this pass: the old-state view still shows them
	pass    uint64 // current pass number (see BeginPass)
	version uint64 // bumped on every visibility change
	indexes []*Index
}

// NewRelation creates an empty relation with the given column names over
// a symbol table (Database.Create passes the database's).
func NewRelation(syms *Symbols, name string, cols ...string) *Relation {
	return &Relation{name: name, cols: append([]string(nil), cols...), arity: len(cols), syms: syms}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Cols returns the column names (shared slice; do not mutate).
func (r *Relation) Cols() []string { return r.cols }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of visible (count > 0) distinct tuples.
func (r *Relation) Len() int { return r.live }

// stored returns the number of rows stored, dead ones included.
func (r *Relation) stored() int { return len(r.counts) }

// row returns the ids of the row at a position (shared; do not mutate).
func (r *Relation) row(pos int32) []Sym {
	i := int(pos) * r.arity
	return r.cells[i : i+r.arity : i+r.arity]
}

// Accepts reports why t cannot be stored in r — the wrong number of
// columns, or a value holding the 0x1f byte text keys are joined with —
// or nil. Mutations panic on a wrong arity: callers taking tuples from
// outside the program check them here first.
func (r *Relation) Accepts(t Tuple) error {
	if len(t) != r.arity {
		return fmt.Errorf("%s has %d columns, tuple %q has %d", r.name, r.arity, []string(t), len(t))
	}
	for _, v := range t {
		if strings.IndexByte(v, keySep) >= 0 {
			return fmt.Errorf("%s: value %q contains the reserved byte 0x1f", r.name, v)
		}
	}
	return nil
}

func (r *Relation) checkArity(n int) {
	if n != r.arity {
		panic(fmt.Sprintf("db: %s: tuple arity %d, want %d", r.name, n, r.arity))
	}
}

// BeginPass starts a new pass: the old-state view (Plan atoms compiled
// with old=true) now answers with the relation's state as of this call.
func (r *Relation) BeginPass() {
	r.pass++
	r.pinned = 0
}

// toggledOdd reports whether the row at pos toggled its visibility an
// odd number of times in the current pass.
func (r *Relation) toggledOdd(pos int32) bool { return r.flips[pos] == r.pass<<1|1 }

// visible reports whether the row at pos is visible in the live state
// (old=false) or was visible when the current pass began (old=true).
func (r *Relation) visible(pos int32, old bool) bool {
	return (r.counts[pos] > 0) != (old && r.toggledOdd(pos))
}

// find returns the position of the row holding ids, or -1.
func (r *Relation) find(ids []Sym) int32 {
	if i, ok := r.lookup(&r.rows, nil, ids, idtab.Hash(ids)); ok {
		return r.rows.Pos(i)
	}
	return -1
}

// InsertRow adds n derivations (n may be negative for deletion) of the row
// of ids and reports whether visibility changed in either direction. The
// ids must come from the relation's symbol table; row is copied. Indexes
// are maintained in place: a first-seen row is appended to its bucket of
// every built index; a row that dies stays in its buckets as a tombstone
// (lookups skip it), so a revival needs no index work and lands in its
// original slot.
func (r *Relation) InsertRow(row []Sym, n int) bool {
	r.checkArity(len(row))
	if n == 0 {
		return false
	}
	h := idtab.Hash(row)
	i, found := r.lookup(&r.rows, nil, row, h)
	var pos int32
	if found {
		pos = r.rows.Pos(i)
	} else {
		if len(r.counts) == math.MaxInt32 {
			panic(fmt.Sprintf("db: %s: relation full", r.name))
		}
		pos = int32(len(r.counts))
		r.cells = append(idtab.Grow(r.cells, len(row)), row...)
		r.counts = append(idtab.Grow(r.counts, 1), 0)
		r.flips = append(idtab.Grow(r.flips, 1), 0)
		r.rows.Put(i, h, pos, 0)
		for _, ix := range r.indexes {
			ix.add(pos)
		}
	}
	was := r.counts[pos] > 0
	c := int64(r.counts[pos]) + int64(n)
	if c < 0 || c > math.MaxInt32 {
		// Deleting more derivations than exist is a logic error upstream.
		panic(fmt.Sprintf("db: %s: count %d for %v", r.name, c, r.syms.Tuple(row)))
	}
	r.counts[pos] = int32(c)
	now := c > 0
	if was == now {
		return false
	}
	r.version++
	wasOdd := r.toggledOdd(pos)
	r.flips[pos] = r.pass << 1
	if !wasOdd {
		r.flips[pos] |= 1
	}
	if now {
		r.live++
		if found {
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

// maybeCompact drops dead rows (from the row storage, the row map and the
// indexes) once they dominate. Rows that died in the current pass are kept
// — the old-state view still enumerates them — and do not count towards
// the trigger, so a pass that deletes most of a relation compacts it on a
// later pass instead of rescanning it on every delete. Positions shift;
// the symbols of a dropped row stay interned.
func (r *Relation) maybeCompact() {
	droppable := r.dead - r.pinned
	if droppable <= 64 || droppable*2 < len(r.counts) {
		return
	}
	keep := int32(0)
	for pos := range int32(len(r.counts)) {
		if r.counts[pos] > 0 || r.toggledOdd(pos) {
			copy(r.cells[int(keep)*r.arity:], r.row(pos))
			r.counts[keep], r.flips[keep] = r.counts[pos], r.flips[pos]
			keep++
		}
	}
	r.cells = r.cells[:int(keep)*r.arity]
	r.counts, r.flips = r.counts[:keep], r.flips[:keep]
	r.dead = r.pinned
	r.reindex()
}

// reindex rebuilds the row map and every index from the row storage.
func (r *Relation) reindex() {
	r.rows.Reset(len(r.counts))
	for pos := range int32(len(r.counts)) {
		r.rows.Place(idtab.Hash(r.row(pos)), pos, 0)
	}
	for _, ix := range r.indexes {
		ix.rebuild()
	}
}

// Count returns the derivation count of t (0 when absent).
func (r *Relation) Count(t Tuple) int {
	var a [16]Sym
	ids, ok := r.syms.FindIDs(a[:0], t)
	if !ok || len(ids) != r.arity {
		return 0
	}
	if pos := r.find(ids); pos >= 0 {
		return int(r.counts[pos])
	}
	return 0
}

// Tuples returns all visible tuples, as text, in deterministic order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.live)
	for pos := range int32(len(r.counts)) {
		if r.counts[pos] > 0 {
			out = append(out, r.syms.Tuple(r.row(pos)))
		}
	}
	return out
}

// Clear removes every tuple. Built indexes stay registered (compiled
// plans hold handles to them) and are emptied.
func (r *Relation) Clear() {
	r.cells, r.counts, r.flips = nil, nil, nil
	r.live, r.dead, r.pinned = 0, 0, 0
	r.version++
	r.reindex()
}

// Index is a hash index on a subset of columns, maintained in place by
// the relation's mutations. A bucket lists its rows — dead ones included,
// until compaction — in the relation's first-insertion order, so the
// enumeration of a bucket is exactly what a rebuild from scratch, or a
// relation restored from its snapshot, would yield. Buckets are chains
// through next: no slice, map entry or key string per row or per key.
type Index struct {
	rel  *Relation
	cols []int
	tab  idtab.Table // key ids → bucket
	head []int32     // per bucket: its first row
	tail []int32     // per bucket: its last row
	next []int32     // per row: the next row of its bucket, -1 after the last
}

// IndexOn returns (building it on first use) the index on the given
// column positions. It may write the relation, like a mutation.
func (r *Relation) IndexOn(cols ...int) *Index {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("db: %s: index column %d out of range", r.name, c))
		}
	}
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

// rebuild refills the buckets from the relation's rows.
func (ix *Index) rebuild() {
	n := ix.rel.stored()
	ix.tab.Reset(n)
	ix.head, ix.tail, ix.next = ix.head[:0], ix.tail[:0], ix.next[:0]
	for pos := range int32(n) {
		ix.add(pos)
	}
}

// add appends the row at pos, the relation's newest, to its bucket.
func (ix *Index) add(pos int32) {
	var a [8]Sym
	key := a[:0]
	for _, c := range ix.cols {
		key = append(key, ix.rel.cells[int(pos)*ix.rel.arity+c])
	}
	h := idtab.Hash(key)
	i, found := ix.rel.lookup(&ix.tab, ix.cols, key, h)
	ix.next = append(idtab.Grow(ix.next, 1), -1)
	if found {
		b := ix.tab.Val(i)
		ix.next[ix.tail[b]] = pos
		ix.tail[b] = pos
		return
	}
	ix.tab.Put(i, h, pos, int32(len(ix.head)))
	ix.head = append(idtab.Grow(ix.head, 1), pos)
	ix.tail = append(idtab.Grow(ix.tail, 1), pos)
}

// first returns the first row of the bucket for a key (the indexed
// columns' ids), -1 when there is none; next[pos] continues the walk. The
// rows may be dead; callers filter by visibility. Lock-free and
// allocation-free.
func (ix *Index) first(key []Sym) int32 {
	if i, ok := ix.rel.lookup(&ix.tab, ix.cols, key, idtab.Hash(key)); ok {
		return ix.head[ix.tab.Val(i)]
	}
	return -1
}

// lookup returns the slot of tab holding the row whose columns cols (nil:
// all of them) hold key of hash h and true, or the empty slot the key
// would go to and false.
func (r *Relation) lookup(tab *idtab.Table, cols []int, key []Sym, h uint32) (int, bool) {
	return tab.Find(h, func(pos int32) bool { return r.keyAt(pos, cols, key) })
}

// keyAt reports whether the row at pos holds key on cols (nil: the whole
// row).
func (r *Relation) keyAt(pos int32, cols []int, key []Sym) bool {
	row := r.row(pos)
	if cols == nil {
		return slices.Equal(row, key)
	}
	for i, c := range cols {
		if row[c] != key[i] {
			return false
		}
	}
	return true
}

// Database is a named collection of relations over one symbol table.
type Database struct {
	syms  *Symbols
	rels  map[string]*Relation
	names []string
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{syms: NewSymbols(), rels: make(map[string]*Relation)}
}

// Symbols returns the database's symbol table.
func (d *Database) Symbols() *Symbols { return d.syms }

// Create adds a new empty relation. Creating a duplicate name errors.
func (d *Database) Create(name string, cols ...string) (*Relation, error) {
	if _, ok := d.rels[name]; ok {
		return nil, fmt.Errorf("db: relation %q already exists", name)
	}
	r := NewRelation(d.syms, name, cols...)
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
