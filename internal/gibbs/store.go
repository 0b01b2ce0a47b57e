package gibbs

import (
	"fmt"
	"math/bits"
)

// Store holds possible worlds sampled from a distribution, bit-packed one
// bit per variable per sample — the "tuple bundle" materialization of the
// sampling approach (Section 3.2.2; cf. MCDB). A single sample for one
// random variable costs exactly one bit, matching the paper's space
// accounting.
type Store struct {
	nVars   int
	words   int // uint64 words per sample
	samples [][]uint64
	cursor  int // next sample to hand out via Next

	// arena is the tail of the current allocation chunk: Add carves each
	// sample's words from it instead of allocating per sample. Chunks
	// double up to arenaMaxChunk samples, so a materialization run costs
	// O(log n) allocations instead of n.
	arena []uint64
	chunk int // samples per chunk at the last growth
}

const (
	arenaMinChunk = 16
	arenaMaxChunk = 1024
)

// NewStore creates an empty store for worlds of nVars variables.
func NewStore(nVars int) *Store {
	return &Store{nVars: nVars, words: (nVars + 63) / 64}
}

// NumVars returns the per-sample variable count.
func (s *Store) NumVars() int { return s.nVars }

// Len returns the number of stored samples.
func (s *Store) Len() int { return len(s.samples) }

// Remaining returns how many stored samples have not been consumed yet.
func (s *Store) Remaining() int { return len(s.samples) - s.cursor }

// Reset rewinds the consumption cursor.
func (s *Store) Reset() { s.cursor = 0 }

// MemoryBytes returns the packed sample storage footprint.
func (s *Store) MemoryBytes() int { return len(s.samples) * s.words * 8 }

// Add packs and appends one world. len(assign) must equal NumVars.
// Samples are carved from a doubling arena (no per-sample allocation) and
// packed a word at a time (one store per 64 variables instead of one
// read-modify-write per set bit).
func (s *Store) Add(assign []bool) {
	if len(assign) != s.nVars {
		panic(fmt.Sprintf("gibbs: Store.Add got %d vars, want %d", len(assign), s.nVars))
	}
	if len(s.arena) < s.words {
		if s.chunk < arenaMaxChunk {
			if s.chunk == 0 {
				s.chunk = arenaMinChunk
			} else {
				s.chunk *= 2
			}
		}
		s.arena = make([]uint64, s.chunk*s.words)
	}
	w := s.arena[:s.words:s.words]
	s.arena = s.arena[s.words:]
	pack(w, assign)
	s.samples = append(s.samples, w)
}

// pack writes the world into w, one bit per variable, a word at a time.
func pack(w []uint64, assign []bool) {
	var x uint64
	wi := 0
	for j, v := range assign {
		if v {
			x |= 1 << (uint(j) & 63)
		}
		if j&63 == 63 {
			w[wi] = x
			x = 0
			wi++
		}
	}
	if len(assign)&63 != 0 {
		w[wi] = x
	}
}

// Get unpacks sample i into dst (allocating when needed) and returns it.
func (s *Store) Get(i int, dst []bool) []bool {
	if cap(dst) < s.nVars {
		dst = make([]bool, s.nVars)
	}
	dst = dst[:s.nVars]
	clear(dst)
	eachSetBit(s.samples[i], func(v int) { dst[v] = true })
	return dst
}

// eachSetBit calls f with the index of every set bit of the packed world w,
// ascending: one step per word and per set bit, none per clear one.
func eachSetBit(w []uint64, f func(v int)) {
	for wi, x := range w {
		for ; x != 0; x &= x - 1 {
			f(wi<<6 | bits.TrailingZeros64(x))
		}
	}
}

// Skip consumes the next n samples without unpacking them — for callers
// that read the columns they need through Bit. n is clamped to Remaining.
func (s *Store) Skip(n int) { s.cursor += min(n, s.Remaining()) }

// Bit returns variable v of sample i without unpacking the whole world.
func (s *Store) Bit(i int, v int) bool {
	return s.samples[i][uint(v)>>6]>>(uint(v)&63)&1 != 0
}

// Means returns the per-variable empirical marginals across all stored
// samples. A word is counted by whichever of its bit values is the rarer —
// the set bits, or the clear ones against a per-word tally of the samples
// so counted — so a store of mostly-true columns costs what a store of
// mostly-false ones does; the counts are whole numbers either way.
func (s *Store) Means() []float64 {
	out := make([]float64, s.words*64)[:s.nVars]
	if len(s.samples) == 0 {
		return out
	}
	counts := out[:cap(out)]            // the last word's spare bits count too, unread
	byZeros := make([]float64, s.words) // samples whose word wi was counted by its clear bits
	for _, w := range s.samples {
		for wi, x := range w {
			one := 1.0
			if bits.OnesCount64(x) > 32 {
				x, one = ^x, -1
				byZeros[wi]++
			}
			for c := counts[wi<<6 : wi<<6+64]; x != 0; x &= x - 1 {
				c[bits.TrailingZeros64(x)] += one
			}
		}
	}
	inv := 1 / float64(len(s.samples))
	for v := range out {
		out[v] = (out[v] + byZeros[v>>6]) * inv
	}
	return out
}

// FloatWorlds unpacks all samples as {0,1}-valued float rows, the input
// format the covariance estimation of Algorithm 1 consumes. When sub is
// non-nil only those variable indices are extracted (in order). The rows
// are cut from one allocation.
func (s *Store) FloatWorlds(sub []int) [][]float64 {
	width := s.nVars
	if sub != nil {
		width = len(sub)
	}
	flat := make([]float64, len(s.samples)*width)
	rows := make([][]float64, len(s.samples))
	for i, w := range s.samples {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		if sub == nil {
			eachSetBit(w, func(v int) { row[v] = 1 })
		} else {
			for k, v := range sub {
				if s.Bit(i, v) {
					row[k] = 1
				}
			}
		}
		rows[i] = row
	}
	return rows
}

// Columns is a block of worlds written column by column before it joins a
// store: n copies of one world in a single allocation, edited through Flip
// and handed over by Store.Append — or dropped, which leaves the store as it
// was. It is how a sampler that draws a variable's values for all worlds at
// once (exact per-component sampling) fills the sample-major store.
type Columns struct {
	n, words int
	rows     []uint64
}

// NewColumns returns n copies of world, laid out for s.
func (s *Store) NewColumns(world []bool, n int) *Columns {
	c := &Columns{n: n, words: s.words, rows: make([]uint64, n*s.words)}
	if n > 0 {
		pack(c.rows[:s.words], world)
	}
	for i := 1; i < n; i++ {
		copy(c.rows[i*s.words:], c.rows[:s.words])
	}
	return c
}

// Flip inverts variable v of world i.
func (c *Columns) Flip(i, v int) { c.rows[i*c.words+v>>6] ^= 1 << (uint(v) & 63) }

// Append adds the block's worlds to the store, which takes the block over.
func (s *Store) Append(c *Columns) {
	for i := 0; i < c.n; i++ {
		s.samples = append(s.samples, c.rows[i*s.words:(i+1)*s.words:(i+1)*s.words])
	}
}
