package deepdive_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"deepdive"
	"deepdive/internal/kbc"
	"deepdive/internal/persist"
)

// layoutDigest hashes what a KB serves after a step, byte for byte: the
// current graph's snapshot image (pools, overflow rows in their order,
// tombstones), the weights and the marginals, and the change sets the
// engine has accumulated and the KB carries, ids in their listed order.
func layoutDigest(kb *deepdive.KB) string {
	g, marg := kb.Served()
	var b persist.Buf
	g.AppendSnapshot(&b)
	if eng, _ := kb.Engine(); eng != nil {
		eng.Accumulated().AppendSnapshot(&b)
	}
	kb.Pending().AppendSnapshot(&b)
	h := fnv.New64a()
	h.Write(b.Bytes())
	var word [8]byte
	for _, xs := range [][]float64{kb.Weights(), marg} {
		binary.LittleEndian.PutUint64(word[:], uint64(len(xs)))
		h.Write(word[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
			h.Write(word[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPatchedLayoutIsPinned pins the layout the update path produces, not
// only the distribution: on the wire corpus it applies the six rule
// iterations to a KB materialized without them, then a 64-update document
// stream, and after every step the graph image, the weights and the
// marginals must hash to the digests recorded when the patch path tracked
// membership in hash sets. TestPatchDifferential holds each patched graph
// to its rebuild semantically; this holds the bytes, so a change to how
// the patch dedupes adjacency or blanket rows, or to the order a change
// set lists its ids in, shows here first.
func TestPatchedLayoutIsPinned(t *testing.T) {
	want := []struct{ step, digest string }{
		{"A1", "0647c2cde1e11844"}, {"FE1", "99674db7242cf7e4"}, {"FE2", "32aad8b7b45589fc"},
		{"I1", "dad4d2a130f36e70"}, {"S1", "39a1a43de2d2a022"}, {"S2", "9ea71065aa32f37e"},
		{"stream 0-15", "3999a12af4bf3a90"}, {"stream 16-31", "c6623c7b69e3dc15"},
		{"stream 32-47", "64595d0e05c99fa0"}, {"stream 48-63", "1caf339a48f34bef"},
	}
	w := newWireCorpus(t, 3, 1, 64)
	kb := w.open(t, 0, 0)
	_, err := kb.Materialize(ctx)
	must(t, err)
	got := map[string]string{}
	for _, name := range kbc.IterationNames {
		_, err := kb.Apply(ctx, deepdive.Update{RuleSource: kbc.IterationRules(w.sys, name)})
		must(t, err)
		got[name] = layoutDigest(kb)
	}
	for q := 0; q < len(w.stream); q += 16 {
		h := fnv.New64a()
		for _, u := range w.stream[q : q+16] {
			_, err := kb.Apply(ctx, u)
			must(t, err)
			h.Write([]byte(layoutDigest(kb)))
		}
		got[fmt.Sprintf("stream %d-%d", q, q+15)] = fmt.Sprintf("%016x", h.Sum64())
	}
	for _, w := range want {
		if got[w.step] != w.digest {
			t.Errorf("%s: digest %s, want %s", w.step, got[w.step], w.digest)
		}
	}
}
