package gibbs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStoreRoundTrip(t *testing.T) {
	st := NewStore(70) // spans two uint64 words
	w1 := make([]bool, 70)
	w2 := make([]bool, 70)
	for i := range w1 {
		w1[i] = i%3 == 0
		w2[i] = i%2 == 0
	}
	st.Add(w1)
	st.Add(w2)
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	got := st.Get(0, nil)
	for i := range w1 {
		if got[i] != w1[i] {
			t.Fatalf("sample 0 bit %d = %v, want %v", i, got[i], w1[i])
		}
	}
	got = st.Get(1, got)
	for i := range w2 {
		if got[i] != w2[i] {
			t.Fatalf("sample 1 bit %d = %v, want %v", i, got[i], w2[i])
		}
	}
}

func TestStoreAddPanicsOnWrongSize(t *testing.T) {
	st := NewStore(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong size did not panic")
		}
	}()
	st.Add(make([]bool, 5))
}

func TestStoreNextAndExhaustion(t *testing.T) {
	st := NewStore(3)
	st.Add([]bool{true, false, true})
	st.Add([]bool{false, true, false})
	if st.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", st.Remaining())
	}
	s1, ok := st.Next(nil)
	if !ok || !s1[0] || s1[1] {
		t.Fatalf("first Next = %v, ok=%v", s1, ok)
	}
	_, ok = st.Next(nil)
	if !ok {
		t.Fatal("second Next should succeed")
	}
	if _, ok := st.Next(nil); ok {
		t.Fatal("exhausted store returned a sample")
	}
	if st.Remaining() != 0 {
		t.Fatalf("Remaining = %d after exhaustion, want 0", st.Remaining())
	}
	st.Reset()
	if st.Remaining() != 2 {
		t.Fatal("Reset did not rewind cursor")
	}
}

func TestStoreMemoryBytes(t *testing.T) {
	st := NewStore(65) // 2 words per sample
	if st.MemoryBytes() != 0 {
		t.Fatal("empty store reports memory")
	}
	st.Add(make([]bool, 65))
	if st.MemoryBytes() != 16 {
		t.Fatalf("MemoryBytes = %d, want 16 (2 words)", st.MemoryBytes())
	}
	// One bit per variable per sample (padded to words): 100 samples of
	// 65 vars must take 1600 bytes, far below the unpacked 6500 bools.
	for i := 0; i < 99; i++ {
		st.Add(make([]bool, 65))
	}
	if st.MemoryBytes() != 1600 {
		t.Fatalf("MemoryBytes = %d, want 1600", st.MemoryBytes())
	}
}

func TestStoreMeans(t *testing.T) {
	st := NewStore(2)
	st.Add([]bool{true, false})
	st.Add([]bool{true, true})
	st.Add([]bool{false, true})
	st.Add([]bool{true, false})
	m := st.Means()
	if m[0] != 0.75 || m[1] != 0.5 {
		t.Fatalf("Means = %v, want [0.75 0.5]", m)
	}
	if got := NewStore(2).Means(); got[0] != 0 || got[1] != 0 {
		t.Fatal("empty store means not zero")
	}
}

func TestStoreFloatWorlds(t *testing.T) {
	st := NewStore(3)
	st.Add([]bool{true, false, true})
	rows := st.FloatWorlds(nil)
	if len(rows) != 1 || rows[0][0] != 1 || rows[0][1] != 0 || rows[0][2] != 1 {
		t.Fatalf("FloatWorlds = %v", rows)
	}
	sub := st.FloatWorlds([]int{2, 0})
	if sub[0][0] != 1 || sub[0][1] != 1 {
		t.Fatalf("FloatWorlds(sub) = %v", sub)
	}
}

// Property: pack → unpack round-trips for arbitrary worlds and sizes.
func TestQuickStoreRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		st := NewStore(n)
		worlds := make([][]bool, 1+rng.Intn(5))
		for k := range worlds {
			w := make([]bool, n)
			for i := range w {
				w[i] = rng.Intn(2) == 0
			}
			worlds[k] = w
			st.Add(w)
		}
		for k, w := range worlds {
			got := st.Get(k, nil)
			for i := range w {
				if got[i] != w[i] {
					return false
				}
				if st.Bit(k, i) != w[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
