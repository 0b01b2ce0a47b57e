package db

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"deepdive/internal/persist"
)

// testSyms is the symbol table the package's test relations share, as the
// relations of one database do.
var testSyms = NewSymbols()

func newRel(name string, cols ...string) *Relation { return NewRelation(testSyms, name, cols...) }

// each visits r's visible tuples in iteration order until f returns false.
func each(r *Relation, f func(Tuple) bool) {
	for _, tu := range r.Tuples() {
		if !f(tu) {
			return
		}
	}
}

func TestTupleKeyRoundTrip(t *testing.T) {
	tu := Tuple{"a", "b,c", ""}
	if got := TupleFromKey(tu.Key()); got.Key() != tu.Key() {
		t.Fatalf("round trip: %v -> %v", tu, got)
	}
	if tu.String() != "(a, b,c, )" {
		t.Fatalf("String = %q", tu.String())
	}
}

func TestInsertDeleteVisibility(t *testing.T) {
	r := newRel("R", "x", "y")
	if !r.Insert(Tuple{"a", "1"}) {
		t.Fatal("first insert should report newly visible")
	}
	if r.Insert(Tuple{"a", "1"}) {
		t.Fatal("second insert should not report visibility change")
	}
	if r.Len() != 1 || r.Count(Tuple{"a", "1"}) != 2 {
		t.Fatalf("Len=%d Count=%d", r.Len(), r.Count(Tuple{"a", "1"}))
	}
	if r.Delete(Tuple{"a", "1"}) {
		t.Fatal("first delete should not change visibility (count 2→1)")
	}
	if !r.Delete(Tuple{"a", "1"}) {
		t.Fatal("second delete should report invisible (count 1→0)")
	}
	if r.Contains(Tuple{"a", "1"}) || r.Len() != 0 {
		t.Fatal("tuple still visible after full deletion")
	}
}

func TestDeleteAbsentPanics(t *testing.T) {
	r := newRel("R", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("delete of absent tuple did not panic")
		}
	}()
	r.Delete(Tuple{"zzz"})
}

func TestArityChecked(t *testing.T) {
	r := newRel("R", "x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity insert did not panic")
		}
	}()
	r.Insert(Tuple{"only-one"})
}

func TestEachDeterministicOrder(t *testing.T) {
	r := newRel("R", "x")
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{fmt.Sprint(i)})
	}
	var got []string
	each(r, func(tu Tuple) bool {
		got = append(got, tu[0])
		return true
	})
	for i, v := range got {
		if v != fmt.Sprint(i) {
			t.Fatalf("order[%d] = %s, want %d", i, v, i)
		}
	}
	// Early stop.
	n := 0
	each(r, func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestReinsertAfterDeleteKeepsWorking(t *testing.T) {
	r := newRel("R", "x")
	r.Insert(Tuple{"a"})
	r.Delete(Tuple{"a"})
	if !r.Insert(Tuple{"a"}) {
		t.Fatal("reinsert should report newly visible")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestCompaction(t *testing.T) {
	r := newRel("R", "x")
	for i := 0; i < 300; i++ {
		r.Insert(Tuple{fmt.Sprint(i)})
	}
	for i := 0; i < 290; i++ {
		r.Delete(Tuple{fmt.Sprint(i)})
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	var got []string
	each(r, func(tu Tuple) bool { got = append(got, tu[0]); return true })
	if len(got) != 10 || got[0] != "290" {
		t.Fatalf("post-compaction iteration wrong: %v", got)
	}
}

// oldTuples enumerates a relation's state as of BeginPass through the
// old-state view, by scan and (when cols is given) by index probe.
func oldTuples(t *testing.T, r *Relation) []string {
	t.Helper()
	terms := make([]Term, r.Arity())
	for i := range terms {
		terms[i] = V(fmt.Sprint("v", i))
	}
	q := &Query{Atoms: []QueryAtom{{Rel: r, Terms: terms}}}
	p, err := q.Compile(ScanOld)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	p.Run(new(Exec), nil, func(regs []Sym) bool {
		out = append(out, r.syms.Tuple(regs).Key())
		return true
	})
	return out
}

func TestOldStateView(t *testing.T) {
	r := newRel("R", "x")
	r.Insert(Tuple{"a"})
	r.InsertN(Tuple{"b"}, 3)
	r.Insert(Tuple{"c"})
	r.Delete(Tuple{"c"}) // dead before the pass
	r.BeginPass()
	r.Delete(Tuple{"a"})      // dies this pass: old-visible
	r.Insert(Tuple{"c"})      // revived this pass: old-invisible
	r.Insert(Tuple{"d"})      // born this pass
	r.InsertN(Tuple{"b"}, -2) // count change, no toggle
	r.Insert(Tuple{"e"})
	r.Delete(Tuple{"e"}) // born and died this pass
	if got := oldTuples(t, r); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("old state = %v, want [a b]", got)
	}
	r.Insert(Tuple{"a"}) // toggled back: even parity
	if got := oldTuples(t, r); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("old state after revive = %v, want [a b]", got)
	}
	r.BeginPass()
	if got := oldTuples(t, r); !slices.Equal(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("old state of the next pass = %v, want the live state [a b c d]", got)
	}
}

// TestInPassCompactionKeepsOldState: a compaction that fires inside a
// pass drops only rows the old-state view no longer shows, and a row it
// kept revives into its original slot.
func TestInPassCompactionKeepsOldState(t *testing.T) {
	r := newRel("R", "x")
	for i := 0; i < 200; i++ {
		r.Insert(Tuple{fmt.Sprint(i)})
	}
	r.BeginPass()
	for i := 0; i < 150; i++ {
		r.Delete(Tuple{fmt.Sprint(i)})
	}
	// Everything that died is pinned by this pass's old-state view.
	if r.stored() != 200 || len(oldTuples(t, r)) != 200 {
		t.Fatalf("pass 1: %d rows kept, old state %d; want 200 and 200", r.stored(), len(oldTuples(t, r)))
	}
	r.BeginPass()
	r.Delete(Tuple{"175"}) // first death of pass 2 compacts pass 1's tombstones away
	if r.stored() != 50 || r.dead != 1 {
		t.Fatalf("pass 2: %d rows kept (%d dead), want 50 (1 dead)", r.stored(), r.dead)
	}
	old := oldTuples(t, r)
	if len(old) != 50 || old[25] != "175" {
		t.Fatalf("old state lost the row that died this pass: %d rows, [25] = %q", len(old), old[25])
	}
	r.Insert(Tuple{"175"})
	if got := r.Tuples(); len(got) != 50 || got[25][0] != "175" {
		t.Fatalf("revived row did not return to its slot: [25] = %v", got[25])
	}
	// A pass that deletes nearly everything does not rescan per delete:
	// pinned rows do not count towards the trigger.
	r.BeginPass()
	for i := 150; i < 199; i++ {
		r.Delete(Tuple{fmt.Sprint(i)})
	}
	if r.stored() != 50 || r.pinned != 49 {
		t.Fatalf("pass 3: %d rows kept, %d pinned; want 50 and 49", r.stored(), r.pinned)
	}
}

func TestIndexMaintainedInPlace(t *testing.T) {
	r := newRel("R", "x", "y")
	r.Insert(Tuple{"a", "1"})
	r.Insert(Tuple{"a", "2"})
	r.Insert(Tuple{"b", "1"})
	ix := r.IndexOn(0)
	if got := ix.Lookup("a"); len(got) != 2 {
		t.Fatalf("Lookup(a) = %d tuples, want 2", len(got))
	}
	r.Insert(Tuple{"a", "3"})
	if got := ix.Lookup("a"); len(got) != 3 {
		t.Fatalf("Lookup(a) = %d tuples after insert, want 3", len(got))
	}
	r.Delete(Tuple{"a", "2"})
	if got := ix.Lookup("a"); len(got) != 2 || got[1][1] != "3" {
		t.Fatalf("Lookup(a) after delete = %v, want (a,1) (a,3)", got)
	}
	r.Insert(Tuple{"a", "2"})
	if got := ix.Lookup("a"); len(got) != 3 || got[1][1] != "2" {
		t.Fatalf("revived tuple left its slot: Lookup(a) = %v", got)
	}
	if r.IndexOn(0) != ix {
		t.Fatal("IndexOn built a second index on the same columns")
	}
	ix2 := r.IndexOn(1, 0)
	if got := ix2.Lookup("1", "a"); len(got) != 1 {
		t.Fatalf("two-column lookup = %d, want 1", len(got))
	}
	r.Clear()
	r.Insert(Tuple{"a", "9"})
	if got := ix.Lookup("a"); len(got) != 1 || got[0][1] != "9" {
		t.Fatalf("index handle stale after Clear: %v", got)
	}
}

// TestIndexesMatchRestoredRelation: after any sequence of inserts,
// deletes, revivals, passes and compactions, every index lookup — on
// indexes built before, during and after the sequence — equals, in order,
// the lookup on a relation round-tripped through its snapshot codec
// (whose indexes are built from scratch), and the O(1) counters equal a
// recount.
func TestIndexesMatchRestoredRelation(t *testing.T) {
	colSets := [][]int{{0}, {1}, {2}, {0, 1}, {2, 0}, {0, 1, 2}}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRel("R", "x", "y", "z")
		val := func(n int) Value { return fmt.Sprint(rng.Intn(n)) }
		check := func(step int) {
			var b persist.Buf
			r.AppendSnapshot(&b)
			fresh := newRel("R", "x", "y", "z")
			if err := fresh.RestoreSnapshot(persist.NewRd(b.Bytes())); err != nil {
				t.Fatal(err)
			}
			live := 0
			for _, c := range r.counts {
				if c > 0 {
					live++
				}
			}
			if r.Len() != live || fresh.Len() != live || r.dead != r.stored()-live {
				t.Fatalf("seed %d step %d: Len %d (restored %d), recount %d; dead %d of %d rows",
					seed, step, r.Len(), fresh.Len(), live, r.dead, r.stored())
			}
			if !slices.EqualFunc(r.Tuples(), fresh.Tuples(), func(a, b Tuple) bool { return slices.Equal(a, b) }) {
				t.Fatalf("seed %d step %d: iteration order differs from the restored relation", seed, step)
			}
			for _, cols := range colSets {
				if rng.Intn(3) != 0 && step < 1500 {
					continue // leave some indexes to be built later in the sequence
				}
				ix, fx := r.IndexOn(cols...), fresh.IndexOn(cols...)
				for probe := 0; probe < 40; probe++ {
					vals := make([]Value, len(cols))
					for i, c := range cols {
						vals[i] = val([]int{6, 6, 12}[c])
					}
					got, want := ix.Lookup(vals...), fx.Lookup(vals...)
					if !slices.EqualFunc(got, want, func(a, b Tuple) bool { return slices.Equal(a, b) }) {
						t.Fatalf("seed %d step %d: index %v lookup %v = %v, restored relation gives %v",
							seed, step, cols, vals, got, want)
					}
				}
			}
		}
		for step := 1; step <= 1500; step++ {
			tu := Tuple{val(6), val(6), val(12)}
			switch {
			case rng.Intn(40) == 0:
				r.BeginPass()
			case r.Contains(tu) && rng.Intn(3) > 0:
				r.Delete(tu)
			default:
				r.InsertN(tu, 1+rng.Intn(2))
			}
			if step%150 == 0 {
				check(step)
			}
		}
		// Drain it, so compaction fires (more than 64 droppable tombstones).
		for _, tu := range r.Tuples() {
			r.InsertN(tu, -r.Count(tu))
			if rng.Intn(30) == 0 {
				r.BeginPass()
			}
		}
		r.BeginPass()
		for i := 0; i < 100; i++ {
			r.Insert(Tuple{val(6), val(6), val(12)})
		}
		if r.stored() > 300 {
			t.Fatalf("seed %d: %d rows kept for %d live: compaction never fired", seed, r.stored(), r.Len())
		}
		check(1500)
	}
}

func TestDatabaseCreateAndNames(t *testing.T) {
	d := NewDatabase()
	d.MustCreate("B", "x")
	d.MustCreate("A", "x")
	if _, err := d.Create("A", "x"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if !d.Has("A") || d.Has("C") {
		t.Fatal("Has wrong")
	}
	if n := d.Names(); n[0] != "B" || n[1] != "A" {
		t.Fatalf("Names = %v (want creation order)", n)
	}
	if n := d.SortedNames(); n[0] != "A" || n[1] != "B" {
		t.Fatalf("SortedNames = %v", n)
	}
	d.Relation("A").Insert(Tuple{"t"})
	if d.TotalTuples() != 1 {
		t.Fatalf("TotalTuples = %d", d.TotalTuples())
	}
}

// Property: visibility transitions from Insert/Delete always agree with a
// shadow map implementation.
func TestQuickCountedSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRel("R", "x")
		shadow := map[string]int{}
		for step := 0; step < 300; step++ {
			k := fmt.Sprint(rng.Intn(10))
			tu := Tuple{k}
			if rng.Intn(2) == 0 || shadow[k] == 0 {
				became := r.Insert(tu)
				shadow[k]++
				if became != (shadow[k] == 1) {
					return false
				}
			} else {
				became := r.Delete(tu)
				shadow[k]--
				if became != (shadow[k] == 0) {
					return false
				}
			}
		}
		vis := 0
		for _, c := range shadow {
			if c > 0 {
				vis++
			}
		}
		return vis == r.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
