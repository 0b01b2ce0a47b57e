// Package idtab is the open-addressing hash table the relational store and
// the grounder index their records with. A Table stores no keys: a slot
// holds a record's position (a relation row, a variable, a group, a
// grounding) and the key's hash, and the caller's equality test compares a
// probed key against the record it names. Keys are ids (symbols, relation
// positions, variable and group ids), hashed with Hash; nothing in a table
// is a pointer, so a table of any size is one object the collector does
// not scan.
package idtab

import "slices"

// Table is an open-addressing hash table (linear probing, at most 3/4
// full) from keys to record positions, each with an int32 value beside it.
// Entries are only added; a caller that drops records rebuilds the table
// (Reset, then Place each survivor).
type Table struct {
	slots []slot // power-of-two length, or empty
	n     int
}

type slot struct {
	hash uint32
	pos  int32 // the key's record + 1; 0 marks an empty slot
	val  int32
}

// Find returns the slot holding the record whose key has hash h and which
// eq accepts, and true; or the empty slot such a key would go to (-1 on an
// empty table) and false. eq is called only on records whose key hash is h.
func (t *Table) Find(h uint32, eq func(pos int32) bool) (int, bool) {
	if len(t.slots) == 0 {
		return -1, false
	}
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.pos == 0 {
			return i, false
		}
		if s.hash == h && eq(s.pos-1) {
			return i, true
		}
	}
}

// Pos returns the record in slot i, which Find returned as found.
func (t *Table) Pos(i int) int32 { return t.slots[i].pos - 1 }

// Val returns the value in slot i, which Find returned as found.
func (t *Table) Val(i int) int32 { return t.slots[i].val }

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Put fills slot i, which Find returned for an absent key of hash h, with
// the key's record and a value, growing the table first when it is full.
func (t *Table) Put(i int, h uint32, pos, val int32) {
	if i < 0 || 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		t.Place(h, pos, val)
		return
	}
	t.slots[i] = slot{h, pos + 1, val}
	t.n++
}

// Place adds an entry for a key known to be absent from a table with room
// for it (Reset sized it, or Put grows it).
func (t *Table) Place(h uint32, pos, val int32) {
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = slot{h, pos + 1, val}
	t.n++
}

func (t *Table) grow() {
	old := t.slots
	t.slots, t.n = make([]slot, max(16, 2*len(old))), 0
	for _, s := range old {
		if s.pos != 0 {
			t.Place(s.hash, s.pos-1, s.val)
		}
	}
}

// Reset empties the table, sized for n entries.
func (t *Table) Reset(n int) {
	size := 16
	for 3*size < 4*n {
		size *= 2
	}
	if size == len(t.slots) {
		clear(t.slots)
	} else {
		t.slots = make([]slot, size)
	}
	t.n = 0
}

// Grow returns s with room for n more elements, at least doubling its
// capacity when it has to grow: the growth policy for the record slabs a
// Table indexes. append grows a large slice by a quarter at a time, which
// leaves four times a slab's size in garbage on its way up; doubling
// leaves at most its size.
func Grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// Hash mixes a key of ids into 32 bits whose low bits index a Table.
func Hash(key []uint32) uint32 { return finish(mix(seed, key)) }

// HashAfter is Hash of the key with first in front of it, without building
// that key: a record's key that is an id followed by ids stored elsewhere.
func HashAfter(first uint32, key []uint32) uint32 {
	return finish(mix(step(seed, first), key))
}

const seed = 0x9e3779b9

func step(h, v uint32) uint32 {
	h ^= v
	h *= 0x85ebca6b
	return h ^ h>>15
}

func mix(h uint32, key []uint32) uint32 {
	for _, v := range key {
		h = step(h, v)
	}
	return h
}

func finish(h uint32) uint32 {
	h *= 0xc2b2ae35
	return h ^ h>>16
}
