package deepdive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// FuzzDecodeUpdate throws arbitrary WAL record payloads at decodeUpdate.
// Whatever arrives, it either refuses the payload or decodes an update that
// survives encodeUpdate → decodeUpdate unchanged; it never panics, and it
// allocates in proportion to the payload (at most 16 bytes a byte, a
// decoded update needs under 8), never to a count prefix the payload
// claims.
//
// Run the smoke pass with `make fuzz-smoke`; a short pass also runs in CI.
func FuzzDecodeUpdate(f *testing.F) {
	doc := func(i int) Update {
		sid := fmt.Sprintf("sx%d", i)
		return Update{Inserts: map[string][]Tuple{
			"Sentence":      {{sid, "Pat and his wife Sam"}},
			"PersonMention": {{fmt.Sprintf("p%da", i), sid, "Pat"}, {fmt.Sprintf("p%db", i), sid, "Sam"}},
		}}
	}
	rule := Update{RuleSource: "FE1: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = 1."}
	retract := Update{Deletes: map[string][]Tuple{"Married": {{"Alan", "Beth"}, {"Alan", "Beth"}}}}
	seeds := []Update{
		{}, doc(1), rule, retract,
		{Inserts: map[string][]Tuple{"Sentence": {{}, {"", "ümlaut\x00\u001f"}}, "Empty": {}}},
	}
	seeds = append(seeds, CoalesceUpdates([]Update{doc(2), doc(3), retract})...)
	for i := range seeds {
		f.Add(encodeUpdate(&seeds[i]))
	}
	// A count prefix claiming far more than the payload holds, at each of
	// the three places one is read.
	huge := binary.LittleEndian.AppendUint64(nil, 1<<62)
	f.Add(huge)
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 0), huge...))
	relation := encodeUpdate(&Update{Inserts: map[string][]Tuple{"R": nil}})
	relation = slices.Clip(relation[:len(relation)-16])
	f.Add(append(relation, huge...))
	// A tuple count no larger than the payload, but past the tuples its
	// remaining bytes could hold: sizing the relation by it would allocate
	// 24 bytes a payload byte.
	padded := make([]byte, 1<<16)
	copy(padded, binary.LittleEndian.AppendUint64(relation, uint64(len(padded))))
	f.Add(padded)

	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := decodeUpdate(p)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(p))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
		}
		if err != nil {
			return
		}
		enc := encodeUpdate(&u)
		back, err := decodeUpdate(enc)
		if err != nil {
			t.Fatalf("re-encoded update does not decode: %v\nupdate: %+v", err, u)
		}
		if !reflect.DeepEqual(back, u) {
			t.Fatalf("round trip changed the update:\n got %+v\nwant %+v", back, u)
		}
		if again := encodeUpdate(&back); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a function of the update's value")
		}
	})
}
