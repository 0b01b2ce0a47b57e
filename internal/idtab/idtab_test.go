package idtab

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableMatchesMap drives a Table over records of random keys — many
// repeats, a few hash collisions forced by a narrow key space — against a
// Go map, through growth from empty and through a Reset-and-Place rebuild.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var (
		tab  Table
		recs [][]uint32 // record i's key
		want = map[[2]uint32]int32{}
	)
	find := func(key []uint32) (int, bool) {
		return tab.Find(Hash(key), func(pos int32) bool { return slices.Equal(recs[pos], key) })
	}
	for i := 0; i < 5000; i++ {
		key := []uint32{uint32(rng.Intn(60)), uint32(rng.Intn(60))}
		slot, found := find(key)
		pos, in := want[[2]uint32(key)]
		if found != in || found && tab.Pos(slot) != pos {
			t.Fatalf("key %v: found %v, want %v (record %d)", key, found, in, pos)
		}
		if !found {
			want[[2]uint32(key)] = int32(len(recs))
			tab.Put(slot, Hash(key), int32(len(recs)), int32(len(recs))*2)
			recs = append(recs, key)
		}
	}
	if tab.Len() != len(want) {
		t.Fatalf("Len %d, want %d", tab.Len(), len(want))
	}
	tab.Reset(len(recs))
	for pos, key := range recs {
		tab.Place(Hash(key), int32(pos), int32(pos)*2)
	}
	for key, pos := range want {
		slot, found := find(key[:])
		if !found || tab.Pos(slot) != pos || tab.Val(slot) != pos*2 {
			t.Fatalf("after the rebuild, key %v: found %v", key, found)
		}
	}
}

// TestHashAfter: HashAfter(first, key) is the Hash of the key with first
// in front of it.
func TestHashAfter(t *testing.T) {
	for _, key := range [][]uint32{nil, {0}, {1, 2, 3}, {0xffffffff, 7}} {
		if got, want := HashAfter(42, key), Hash(append([]uint32{42}, key...)); got != want {
			t.Errorf("HashAfter(42, %v) = %#x, Hash = %#x", key, got, want)
		}
	}
}
