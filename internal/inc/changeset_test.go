package inc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"deepdive/internal/factor"
)

// mergeByMap is the map-based union mergeIDs replaced: a then b, each id
// once, where it first occurs.
func mergeByMap(a, b []int32) []int32 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	seen := map[int32]bool{}
	out := []int32{}
	for _, xs := range [][]int32{a, b} {
		for _, x := range xs {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}

// TestMergeIDsMatchesTheMap holds both of mergeIDs's ways — the bitset
// over dense ids and the sorted positions over sparse ones — to the map
// union, order included, on random lists with repeats within and across
// them.
func TestMergeIDsMatchesTheMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		span := []int32{1, 8, 300, 1 << 20, 1<<31 - 1}[trial%5]
		ids := func() []int32 {
			xs := make([]int32, rng.Intn(40))
			for i := range xs {
				xs[i] = rng.Int31n(span)
			}
			return xs
		}
		a, b := ids(), ids()
		if got, want := mergeIDs(a, b), mergeByMap(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("span %d: mergeIDs(%v, %v) = %v, want %v", span, a, b, got, want)
		}
	}
	if got := mergeIDs([]factor.VarID{3, -2, 3}, []factor.VarID{-2, 7}); !slices.Equal(got, []factor.VarID{3, -2, 7}) {
		t.Fatalf("negative ids: %v", got)
	}
}

// TestNoteAccumulatesAsMerge: the engine's accumulated set is the Merge of
// the change sets it noted, order included, on a bare engine and on a
// materialized one.
func TestNoteAccumulatesAsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := func(n int32) []int32 {
		xs := make([]int32, rng.Intn(30))
		for i := range xs {
			xs[i] = rng.Int31n(n)
		}
		return slices.Compact(xs) // a change set lists an id once; mergeIDs runs do not repeat
	}
	sets := make([]ChangeSet, 12)
	for i := range sets {
		ev := ids(50)
		sets[i] = ChangeSet{ChangedOld: mergeIDs(ids(200), nil), ChangedNew: mergeIDs(ids(400), nil), NewFeatures: i == 7}
		for _, v := range mergeIDs(ev, nil) {
			sets[i].EvidenceChanged = append(sets[i].EvidenceChanged, factor.VarID(v))
		}
	}
	var want ChangeSet
	for _, cs := range sets {
		want = want.Merge(cs)
	}
	fresh := &Engine{}
	for _, cs := range sets {
		fresh.note(cs)
	}
	e, _, _, _ := scopeFixture(t)
	for _, cs := range sets {
		e.note(cs)
	}
	for name, got := range map[string]ChangeSet{"bare": fresh.accum, "materialized": e.accum} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s engine accumulated %+v, Merge gives %+v", name, got, want)
		}
	}
}

// TestCheckIndexes: an engine's accumulated set indexes the graph its last
// update ran on, not Pr(0) — the fixture's update appends group 24 to
// Pr(0)'s 24 — and CheckIndexes refuses an id past that graph on either
// side and among the variables.
func TestCheckIndexes(t *testing.T) {
	e, newG, cs, _ := scopeFixture(t)
	e.opts.CumulativeChanges = true
	e.AutoInferCtx(nil, newG, cs, nil, true)
	acc := e.Accumulated()
	if err := acc.CheckIndexes(newG); err != nil {
		t.Fatalf("the accumulated set does not index the graph its update ran on: %v", err)
	}
	if err := acc.CheckIndexes(e.old); err == nil {
		t.Fatal("group 24 passed as a group of Pr(0)'s 24")
	}
	for _, bad := range []ChangeSet{
		{ChangedOld: []int32{0, int32(newG.NumGroups())}},
		{ChangedNew: []int32{1<<31 - 1}},
		{EvidenceChanged: []factor.VarID{factor.VarID(newG.NumVars())}},
	} {
		if err := bad.CheckIndexes(newG); err == nil {
			t.Errorf("%+v passed against a graph of %d groups, %d variables", bad, newG.NumGroups(), newG.NumVars())
		}
	}
}
