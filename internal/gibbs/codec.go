package gibbs

import (
	"fmt"

	"deepdive/internal/persist"
)

// Snapshot codec for Store. The bit-packed samples are written as one
// contiguous uint64 blob (n * words values) plus the consumption
// cursor; on restore the per-sample slices are views into the blob, so
// a cold start reads the whole store with a single memmove and zero
// per-sample work. The allocation arena is not persisted — it only
// amortizes future Adds, which re-grow it on demand.
const storeCodecVersion = 1

// AppendSnapshot encodes the store into b.
func (s *Store) AppendSnapshot(b *persist.Buf) {
	b.U8(storeCodecVersion)
	b.I64(int64(s.nVars))
	b.I64(int64(s.words))
	b.I64(int64(s.cursor))
	blob := make([]uint64, 0, len(s.samples)*s.words)
	for _, w := range s.samples {
		blob = append(blob, w...)
	}
	b.U64s(blob)
}

// DecodeStoreSnapshot rebuilds a store from r.
func DecodeStoreSnapshot(r *persist.Rd) (*Store, error) {
	if v := r.U8("store version"); r.Err() == nil && v != storeCodecVersion {
		return nil, fmt.Errorf("gibbs: unsupported store codec version %d", v)
	}
	s := &Store{}
	s.nVars = int(r.I64("store nVars"))
	s.words = int(r.I64("store words"))
	s.cursor = int(r.I64("store cursor"))
	blob := r.U64s("store samples")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if s.nVars < 0 || s.words != (s.nVars+63)/64 {
		return nil, fmt.Errorf("gibbs: corrupt store snapshot: %d words for %d variables", s.words, s.nVars)
	}
	if s.words == 0 {
		if len(blob) != 0 || s.cursor != 0 {
			return nil, fmt.Errorf("gibbs: corrupt store snapshot: %d words and cursor %d for no variables", len(blob), s.cursor)
		}
		return s, nil
	}
	if len(blob)%s.words != 0 || s.cursor < 0 || s.cursor > len(blob)/s.words {
		return nil, fmt.Errorf("gibbs: corrupt store snapshot: %d words in blob of %d, cursor %d",
			s.words, len(blob), s.cursor)
	}
	n := len(blob) / s.words
	s.samples = make([][]uint64, n)
	for i := 0; i < n; i++ {
		s.samples[i] = blob[i*s.words : (i+1)*s.words : (i+1)*s.words]
	}
	return s, nil
}
