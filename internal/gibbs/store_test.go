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

func TestStoreSkipAndExhaustion(t *testing.T) {
	st := NewStore(3)
	st.Add([]bool{true, false, true})
	st.Add([]bool{false, true, false})
	if st.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", st.Remaining())
	}
	// Consume one at a time: read the sample at the cursor, then skip it.
	s1 := st.Get(st.Len()-st.Remaining(), nil)
	if !s1[0] || s1[1] {
		t.Fatalf("first sample = %v", s1)
	}
	st.Skip(1)
	if st.Remaining() != 1 {
		t.Fatal("second sample should remain")
	}
	st.Skip(1)
	st.Skip(1) // clamped: nothing left to consume
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

// TestStoreWordWalkMatchesBitLoops holds Means, Get and FloatWorlds — which
// walk words and set bits — to the loops they replaced, one divide, modulo
// and branch per bit, on random stores: equal bit for bit at widths on both
// sides of a word boundary and at every density.
func TestStoreWordWalkMatchesBitLoops(t *testing.T) {
	bit := func(st *Store, i, v int) bool { return st.samples[i][v/64]&(1<<(uint(v)%64)) != 0 }
	for _, width := range []int{1, 63, 64, 65, 1000} {
		rng := rand.New(rand.NewSource(int64(width)))
		st := NewStore(width)
		world := make([]bool, width)
		for i := 0; i < 37; i++ {
			density := rng.Float64()
			for v := range world {
				world[v] = rng.Float64() < density
			}
			st.Add(world)
		}
		means := make([]float64, width)
		for i := 0; i < st.Len(); i++ {
			for v := 0; v < width; v++ {
				if bit(st, i, v) {
					means[v]++
				}
			}
		}
		for v, m := range st.Means() {
			if want := means[v] * (1 / float64(st.Len())); m != want {
				t.Fatalf("width %d: Means[%d] = %v, the bit loop gives %v", width, v, m, want)
			}
		}
		sub := rng.Perm(width)[:(width+1)/2]
		all, some := st.FloatWorlds(nil), st.FloatWorlds(sub)
		dst := make([]bool, width)
		for i := 0; i < st.Len(); i++ {
			for v := range dst {
				dst[v] = true // stale values a reused buffer may hold
			}
			dst = st.Get(i, dst)
			for v := 0; v < width; v++ {
				want := bit(st, i, v)
				if dst[v] != want || st.Bit(i, v) != want || (all[i][v] == 1) != want || (all[i][v] != 0) != want {
					t.Fatalf("width %d: sample %d variable %d: Get %v, Bit %v, FloatWorlds %v, the bit loop gives %v",
						width, i, v, dst[v], st.Bit(i, v), all[i][v], want)
				}
			}
			for k, v := range sub {
				if (some[i][k] == 1) != bit(st, i, v) || len(some[i]) != len(sub) {
					t.Fatalf("width %d: sample %d: FloatWorlds(sub)[%d] = %v for variable %d", width, i, k, some[i][k], v)
				}
			}
		}
	}
}

// TestStoreColumns: a block of n copies of a world, edited by Flip and
// appended, reads back as those worlds with exactly the flipped bits
// inverted; a block that is dropped leaves the store untouched, and one over
// no variables still counts its worlds.
func TestStoreColumns(t *testing.T) {
	for _, width := range []int{0, 1, 64, 130} {
		rng := rand.New(rand.NewSource(int64(width) + 7))
		st := NewStore(width)
		base := make([]bool, width)
		for v := range base {
			base[v] = rng.Intn(2) == 0
		}
		st.Add(base)
		const n = 9
		want := make([][]bool, n)
		cols := st.NewColumns(base, n)
		for i := range want {
			want[i] = append([]bool(nil), base...)
			for f := 0; width > 0 && f < 5; f++ {
				v := rng.Intn(width)
				want[i][v] = !want[i][v]
				cols.Flip(i, v)
			}
		}
		if dropped := st.NewColumns(base, 3); width > 0 {
			dropped.Flip(2, width-1)
		}
		if st.Len() != 1 {
			t.Fatalf("width %d: an unappended block changed the store: %d worlds", width, st.Len())
		}
		st.Append(cols)
		if st.Len() != 1+n || st.Remaining() != 1+n {
			t.Fatalf("width %d: %d worlds after appending %d to one", width, st.Len(), n)
		}
		for i, w := range want {
			got := st.Get(1+i, nil)
			for v := range w {
				if got[v] != w[v] {
					t.Fatalf("width %d: world %d variable %d = %v, want %v", width, i, v, got[v], w[v])
				}
			}
		}
		st.Add(base) // the arena path still works after a block
		if st.Len() != 2+n {
			t.Fatalf("width %d: Add after Append: %d worlds", width, st.Len())
		}
	}
}
