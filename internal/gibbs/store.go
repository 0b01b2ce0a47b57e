package gibbs

import (
	"fmt"
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
	if s.nVars&63 != 0 {
		w[wi] = x
	}
	s.samples = append(s.samples, w)
}

// Get unpacks sample i into dst (allocating when needed) and returns it.
func (s *Store) Get(i int, dst []bool) []bool {
	if cap(dst) < s.nVars {
		dst = make([]bool, s.nVars)
	}
	dst = dst[:s.nVars]
	w := s.samples[i]
	for j := 0; j < s.nVars; j++ {
		dst[j] = w[j/64]&(1<<(uint(j)%64)) != 0
	}
	return dst
}

// Next returns the next unconsumed sample, advancing the cursor. ok is
// false when the store is exhausted — the signal for the optimizer's
// "if we run out of samples, use the variational approach" rule.
func (s *Store) Next(dst []bool) (out []bool, ok bool) {
	if s.cursor >= len(s.samples) {
		return dst, false
	}
	out = s.Get(s.cursor, dst)
	s.cursor++
	return out, true
}

// Skip consumes the next n samples without unpacking them — for callers
// that read the columns they need through Bit. n is clamped to Remaining.
func (s *Store) Skip(n int) { s.cursor += min(n, s.Remaining()) }

// Bit returns variable v of sample i without unpacking the whole world.
func (s *Store) Bit(i int, v int) bool {
	return s.samples[i][v/64]&(1<<(uint(v)%64)) != 0
}

// Means returns the per-variable empirical marginals across all stored
// samples.
func (s *Store) Means() []float64 {
	out := make([]float64, s.nVars)
	if len(s.samples) == 0 {
		return out
	}
	for i := range s.samples {
		for v := 0; v < s.nVars; v++ {
			if s.Bit(i, v) {
				out[v]++
			}
		}
	}
	inv := 1 / float64(len(s.samples))
	for v := range out {
		out[v] *= inv
	}
	return out
}

// FloatWorlds unpacks all samples as {0,1}-valued float rows, the input
// format the covariance estimation of Algorithm 1 consumes. When sub is
// non-nil only those variable indices are extracted (in order).
func (s *Store) FloatWorlds(sub []int) [][]float64 {
	rows := make([][]float64, len(s.samples))
	for i := range s.samples {
		if sub == nil {
			row := make([]float64, s.nVars)
			for v := 0; v < s.nVars; v++ {
				if s.Bit(i, v) {
					row[v] = 1
				}
			}
			rows[i] = row
		} else {
			row := make([]float64, len(sub))
			for k, v := range sub {
				if s.Bit(i, v) {
					row[k] = 1
				}
			}
			rows[i] = row
		}
	}
	return rows
}
