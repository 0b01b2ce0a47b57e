package factor_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/persist"
)

// maxDecodeBytesPerByte bounds what DecodeGraphSnapshot allocates per byte
// of the image beyond decodeFixedBytes. Every pool is decoded into a table
// of its own size, an overflow row costs a slice header (24 bytes for the
// 4 of its offset) and the semantics tables are rebuilt no longer than the
// image's; TestDecodeGraphAllocationBound logs the seeds' figures. A
// decoder that sizes a table by a count the image claims, and not by the
// bytes left to back it, exceeds the bound by orders of magnitude.
const (
	maxDecodeBytesPerByte = 24
	decodeFixedBytes      = 16 << 10
)

// graphSeeds are real graph images: a built graph, the same graph patched
// in place (overflow rows, tombstones, new variables, weights and groups)
// after a few and after many steps, and the compacted rebuild of the last.
func graphSeeds(t testing.TB) [][]byte {
	image := func(g *factor.Graph) []byte {
		var b persist.Buf
		g.AppendSnapshot(&b)
		return b.Bytes()
	}
	rng := rand.New(rand.NewSource(5))
	m, g := seedModel(rng, t, false)
	seeds := [][]byte{image(g)}
	for step := 1; step <= 12; step++ {
		p := factor.NewPatch(g)
		mutateStep(rng, p, m)
		g = p.Apply()
		if step == 3 || step == 12 {
			seeds = append(seeds, image(g))
		}
	}
	compact, err := factor.NewBuilderFrom(g).Build()
	if err != nil {
		t.Fatal(err)
	}
	return append(seeds, image(compact))
}

// decodeAllocs decodes p and returns the graph (nil when refused) with the
// bytes the decoder allocated.
func decodeAllocs(p []byte) (*factor.Graph, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := factor.DecodeGraphSnapshot(persist.NewRd(p))
	runtime.ReadMemStats(&after)
	if err != nil {
		g = nil
	}
	return g, after.TotalAlloc - before.TotalAlloc
}

// TestDecodeGraphAllocationBound measures the seeds the fuzz target starts
// from against the bound it holds every input to.
func TestDecodeGraphAllocationBound(t *testing.T) {
	for i, p := range graphSeeds(t) {
		g, grew := decodeAllocs(p)
		if g == nil {
			t.Fatalf("seed %d does not decode", i)
		}
		t.Logf("seed %d: %d bytes, decoding allocates %d (%.1f a byte)", i, len(p), grew, float64(grew)/float64(len(p)))
		if grew > maxDecodeBytesPerByte*uint64(len(p))+decodeFixedBytes {
			t.Fatalf("seed %d: decoding %d bytes allocated %d", i, len(p), grew)
		}
	}
}

// handImage encodes a graph of one variable, one weight and one Linear
// group whose frozen grounding offsets, literal offsets and literals are
// given; its semantics table is g(0), g(1).
func handImage(gndOff, litOff, lits []int32) []byte {
	var b persist.Buf
	b.U8(1)                       // graph codec version
	b.I64(1)                      // numVars
	b.I64(int64(len(litOff) - 1)) // nGnd
	b.I64(0)                      // nDead
	b.I64(0)                      // nExtra
	b.I64(0)                      // epoch
	b.Bools([]bool{false})
	b.Bools([]bool{false})
	b.F64s([]float64{0.5})
	b.I32s([]int32{0}) // groupHead
	b.I32s([]int32{0}) // groupWeight
	b.I32s([]int32{0}) // groupSem
	b.I32s(gndOff)
	b.I32s(litOff)
	b.I32s(lits)
	b.I32s([]int32{0, 0}) // bodyOff
	b.I32s(nil)           // bodyRecs
	b.I32s([]int32{0, 0}) // adjOff
	b.I32s(nil)           // adjGroups
	b.I32s([]int32{0})    // semOff
	b.F64s([]float64{0, 1})
	b.I32s([]int32{0, 0}) // nbrOff
	b.I32s(nil)           // nbrs
	for range 5 {         // nbrExtra, deadAt, gndExtra, bodyExtra, adjExtra: absent
		b.Bool(false)
	}
	return b.Bytes()
}

// handImages are one well-formed hand-built image and two that a decoder
// trusting its offsets accepts: frozen grounding offsets claiming 1<<26
// groundings (the semantics tables grow to match: gigabytes), and literal
// offsets past the literal pool (the first walk of the grounding panics).
var handImages = []struct {
	name                 string
	gndOff, litOff, lits []int32
	ok                   bool
}{
	{"well-formed", []int32{0, 1}, []int32{0, 1}, []int32{0}, true},
	{"grounding offsets past the pool", []int32{0, 1 << 26}, []int32{0, 1}, []int32{0}, false},
	{"literal offsets past the pool", []int32{0, 1}, []int32{0, 3}, []int32{0}, false},
}

// TestDecodeGraphRefusesBadOffsets: the hand-built images decode or are
// refused as they should, within the fuzz target's allocation bound.
func TestDecodeGraphRefusesBadOffsets(t *testing.T) {
	for _, c := range handImages {
		p := handImage(c.gndOff, c.litOff, c.lits)
		g, grew := decodeAllocs(p)
		if (g != nil) != c.ok {
			t.Errorf("%s: decoded %v, want %v", c.name, g != nil, c.ok)
		}
		if grew > maxDecodeBytesPerByte*uint64(len(p))+decodeFixedBytes {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(p), grew)
		}
	}
}

// FuzzDecodeGraphSnapshot throws arbitrary graph images at
// DecodeGraphSnapshot, the decoder recovery runs on the engine's Pr(0)
// graph. An image is refused, or it decodes to a graph that
// re-encodes to exactly that image and whose evaluators walk it without
// panicking (every group's nested view, every variable's adjacency and
// blanket, the graph induced on all variables); the decoder never panics
// and allocates in proportion to the image, never to a count it claims.
//
// Run the smoke pass with `make fuzz-smoke`; a short pass also runs in CI.
func FuzzDecodeGraphSnapshot(f *testing.F) {
	for _, p := range graphSeeds(f) {
		f.Add(p)
	}
	for _, c := range handImages {
		f.Add(handImage(c.gndOff, c.litOff, c.lits))
	}
	// A count claiming far more elements than the image holds.
	f.Add(append([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0}, binary.LittleEndian.AppendUint64(nil, 1<<62)...))
	f.Fuzz(func(t *testing.T, p []byte) {
		g, grew := decodeAllocs(p)
		if grew > maxDecodeBytesPerByte*uint64(len(p))+decodeFixedBytes {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
		}
		if g == nil {
			return
		}
		var b persist.Buf
		g.AppendSnapshot(&b)
		if !bytes.Equal(b.Bytes(), p) {
			t.Fatalf("a decoded image of %d bytes re-encodes to %d other bytes", len(p), b.Len())
		}
		all := make([]factor.VarID, g.NumVars())
		for v := range all {
			all[v] = factor.VarID(v)
			g.AdjacentGroups(all[v])
			g.Neighbors(all[v], func(factor.VarID) {})
		}
		for gi := range g.NumGroups() {
			g.Group(gi)
		}
		g.Induced(all)
	})
}
