package inc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/persist"
)

// maxRestoreEngineBytesPerByte bounds what RestoreEngine allocates per byte
// of the engine image beyond restoreEngineFixedBytes, which covers an
// undrawn engine. The store's rows are cut from their blob (a slice header,
// 24 bytes, per row of at least 8), the approximation's pools are decoded
// at their own size and rebuilt as edges and unaries, and the change set's
// repeat check takes scratch in proportion to its ids — never to the
// largest id: the engine marks them on its first update, not while
// decoding; TestRestoreEngineAllocationBound logs
// the seeds' figures. A decoder that sizes a table by a count or an id the
// image claims, and not by the bytes left to back it, exceeds the bound by
// orders of magnitude.
const (
	maxRestoreEngineBytesPerByte = 32
	restoreEngineFixedBytes      = 16 << 10
)

// engineSeeds are real engine images over the scope fixture's Pr(0) graph:
// undrawn at once, undrawn with an accumulated change set, and drawn (the
// store, the approximation and that change set).
func engineSeeds(t testing.TB) (old *factor.Graph, opts Options, seeds [][]byte) {
	image := func(e *Engine) []byte {
		var b persist.Buf
		e.AppendSnapshot(&b)
		return b.Bytes()
	}
	e, newG, cs, _ := scopeFixture(t)
	e.opts.CumulativeChanges = true
	seeds = append(seeds, image(e))
	cs.EvidenceChanged = []factor.VarID{3, 1}
	e.AutoInferCtx(nil, newG, cs, nil, true)
	seeds = append(seeds, image(e))
	e.Store()
	return e.old, e.opts, append(seeds, image(e))
}

// restoreEngineAllocs restores an engine from p and returns it (nil when
// refused) with the bytes RestoreEngine allocated.
func restoreEngineAllocs(old *factor.Graph, opts Options, p []byte) (*Engine, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := RestoreEngine(old, opts, persist.NewRd(p))
	runtime.ReadMemStats(&after)
	if err != nil {
		e = nil
	}
	return e, after.TotalAlloc - before.TotalAlloc
}

// TestRestoreEngineAllocationBound measures the seeds the fuzz target
// starts from against the bound it holds every input to, and checks that
// each restores to an engine that re-encodes to its image.
func TestRestoreEngineAllocationBound(t *testing.T) {
	old, opts, seeds := engineSeeds(t)
	for i, p := range seeds {
		e, grew := restoreEngineAllocs(old, opts, p)
		if e == nil {
			t.Fatalf("seed %d does not restore", i)
		}
		t.Logf("seed %d: %d bytes, drawn %v, restore allocates %d (%.1f a byte)", i, len(p), e.Drawn(), grew, float64(grew)/float64(len(p)))
		if grew > maxRestoreEngineBytesPerByte*uint64(len(p))+restoreEngineFixedBytes {
			t.Fatalf("seed %d: restoring %d bytes allocated %d", i, len(p), grew)
		}
		var b persist.Buf
		e.AppendSnapshot(&b)
		if !bytes.Equal(b.Bytes(), p) {
			t.Fatalf("seed %d re-encodes to other bytes", i)
		}
	}
}

// FuzzRestoreEngine throws arbitrary engine images at RestoreEngine over the
// scope fixture's Pr(0) graph: the deferred step's flag, the store, the
// approximation's pools and the accumulated change set. An image is
// refused, or it restores an engine whose re-encoded image equals it;
// RestoreEngine never panics, and allocates in proportion to the image —
// never to a count or an id the image claims.
//
// Run the smoke pass with `make fuzz-smoke`; a short pass also runs in CI.
func FuzzRestoreEngine(f *testing.F) {
	old, opts, seeds := engineSeeds(f)
	for _, p := range seeds {
		f.Add(p)
	}
	// A drawn image whose store claims far more words than it holds, an
	// undrawn one whose change set claims far more ids than it holds, and
	// undrawn ones whose change set names group 2³¹−1, past any graph, on
	// the old side and on the new, and variable 2³¹−1.
	huge := binary.LittleEndian.AppendUint64(nil, 1<<62)
	f.Add(append(append([]byte{engineCodecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}, huge...), huge...))
	f.Add(append([]byte{engineCodecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, make([]byte, 9)...))
	undrawn := []byte{engineCodecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	last := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}
	none := make([]byte, 8)
	for _, cs := range [][3][]byte{{last, none, none}, {none, last, none}, {none, none, last}} {
		f.Add(slices.Concat(undrawn, cs[0], cs[1], cs[2], []byte{0}))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		e, grew := restoreEngineAllocs(old, opts, p)
		if grew > maxRestoreEngineBytesPerByte*uint64(len(p))+restoreEngineFixedBytes {
			t.Fatalf("restoring %d bytes allocated %d", len(p), grew)
		}
		if e == nil {
			return
		}
		var b persist.Buf
		e.AppendSnapshot(&b)
		if !bytes.Equal(b.Bytes(), p) {
			t.Fatalf("a restored image of %d bytes re-encodes to %d other bytes", len(p), b.Len())
		}
	})
}
