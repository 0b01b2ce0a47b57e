package ground

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/persist"
)

// maxRestoreBytesPerByte bounds what Restore allocates per byte of the
// image beyond restoreFixedBytes, which covers an ungrounded grounder (24
// KB). The slabs are decoded at their own size and the lookup tables are
// sized by the records decoded, so measured on the seeds below, beyond the
// ungrounded grounder, it is 2.4 to 3.7 bytes a byte
// (TestRestoreAllocationBound logs them). A decoder that sizes a table by
// a count the image claims, and not by the bytes left to back it, exceeds
// the bound by orders of magnitude.
const (
	maxRestoreBytesPerByte = 24
	restoreFixedBytes      = 256 << 10
)

// restoreSeeds are real grounder images of the spouse program: a corpus
// grounded from scratch, the same after a document insert and its delete,
// and after deletes that compact its relations.
func restoreSeeds(t testing.TB) [][]byte {
	image := func(g *Grounder) []byte {
		var b persist.Buf
		g.AppendSnapshot(&b)
		return b.Bytes()
	}
	g := newSpouseGrounder(t, corpusBase(4, 3))
	seeds := [][]byte{image(g)}
	doc := wideDocUpdate(0, 3)
	for _, u := range []Update{doc, {Deletes: doc.Inserts}} {
		_, err := g.ApplyUpdate(cloneUpdate(u))
		bmust(t, err)
	}
	seeds = append(seeds, image(g))
	var docs Update
	for i := 1; i <= 50; i++ {
		for rel, ts := range wideDocUpdate(i, 2).Inserts {
			if docs.Inserts == nil {
				docs.Inserts = map[string][]db.Tuple{}
			}
			docs.Inserts[rel] = append(docs.Inserts[rel], ts...)
		}
	}
	// A relation's image holds its dead rows until compaction drops them.
	relImage := func() int {
		var b persist.Buf
		g.DB().Relation("PersonCandidate").AppendSnapshot(&b)
		return b.Len()
	}
	// Rows that died in a pass stay for its old-state view: the first
	// death of a later pass compacts them away.
	last := wideDocUpdate(51, 2)
	var sizes []int
	for _, u := range []Update{docs, {Deletes: docs.Inserts}, last, {Deletes: last.Inserts}} {
		_, err := g.ApplyUpdate(cloneUpdate(u))
		bmust(t, err)
		sizes = append(sizes, relImage())
	}
	if sizes[3] >= sizes[1] {
		t.Fatalf("PersonCandidate's image grows from %d to %d bytes over a delete pass: no compaction", sizes[1], sizes[3])
	}
	return append(seeds, image(g))
}

// restoreAllocs restores a grounder of the spouse program from p and
// returns it (nil when refused) with the bytes it allocated.
func restoreAllocs(prog *datalog.Program, p []byte) (*Grounder, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Restore(prog, testUDFs(), persist.NewRd(p))
	runtime.ReadMemStats(&after)
	if err != nil {
		g = nil
	}
	return g, after.TotalAlloc - before.TotalAlloc
}

// TestRestoreAllocationBound measures the seeds the fuzz target starts
// from against the bound it holds every input to.
func TestRestoreAllocationBound(t *testing.T) {
	prog := datalog.MustParse(spouseSrc)
	empty, err := New(prog, testUDFs())
	bmust(t, err)
	var b persist.Buf
	empty.AppendSnapshot(&b)
	_, fixed := restoreAllocs(prog, b.Bytes())
	for i, p := range restoreSeeds(t) {
		g, grew := restoreAllocs(prog, p)
		if g == nil {
			t.Fatalf("seed %d does not restore", i)
		}
		per := float64(grew-min(grew, fixed)) / float64(len(p))
		t.Logf("seed %d: %d bytes, restore allocates %d (%.1f a byte beyond the %d of restoring an ungrounded grounder)", i, len(p), grew, per, fixed)
		if grew > maxRestoreBytesPerByte*uint64(len(p))+restoreFixedBytes {
			t.Fatalf("seed %d: restoring %d bytes allocated %d", i, len(p), grew)
		}
	}
}

// FuzzRestoreGrounder throws arbitrary grounder images at Restore. An image
// is refused, or it restores a grounder whose re-encoded image equals it
// and whose factor graph builds — recovery builds it right after Restore;
// Restore never panics, and allocates in proportion to the image — counts
// are bounded by the bytes left to back them (persist.Rd.Count) — never to
// a count the image claims.
//
// Run the smoke pass with `make fuzz-smoke`; a short pass also runs in CI.
func FuzzRestoreGrounder(f *testing.F) {
	for _, p := range restoreSeeds(f) {
		f.Add(p)
	}
	// A count (the symbol table's) claiming far more than the image holds.
	huge := binary.LittleEndian.AppendUint64(nil, 1<<62)
	f.Add(append([]byte{grounderCodecVersion, 0, 0, 0, 0, 0, 0, 0, 0}, huge...))
	prog := datalog.MustParse(spouseSrc)
	f.Fuzz(func(t *testing.T, p []byte) {
		g, grew := restoreAllocs(prog, p)
		if grew > maxRestoreBytesPerByte*uint64(len(p))+restoreFixedBytes {
			t.Fatalf("restoring %d bytes allocated %d", len(p), grew)
		}
		if g == nil {
			return
		}
		var b persist.Buf
		g.AppendSnapshot(&b)
		if !bytes.Equal(b.Bytes(), p) {
			t.Fatalf("a restored image of %d bytes re-encodes to %d other bytes", len(p), b.Len())
		}
		if gr := g.Graph(); gr.NumVars() != g.NumVars() || gr.NumGroups() != len(g.groups) {
			t.Fatalf("a restored grounder of %d variables and %d groups builds a graph of %d and %d", g.NumVars(), len(g.groups), gr.NumVars(), gr.NumGroups())
		}
	})
}
