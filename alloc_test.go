package deepdive_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"deepdive"
	"deepdive/internal/factor"
	"deepdive/internal/inc"
	"deepdive/internal/kbc"
)

// docUpdateAllocs streams the wire corpus (three document inserts to one
// delete) through KB.Apply at a size factor and returns the bytes and heap
// objects one update allocates, on the mean of 64 updates. The 16 updates
// before those are not counted: they hold the first insert and the first
// delete, which compile the delta plans and build the join indexes those
// plans probe — once per KB, at a cost that does follow its size.
func docUpdateAllocs(t *testing.T, factor float64) (bytes, objects float64) {
	t.Helper()
	const warm, measured = 16, 64
	w := newWireCorpus(t, 3, factor, warm+measured)
	kb := w.materialized(t)
	defer kb.CloseNow()
	var before, after runtime.MemStats
	for i, u := range w.stream {
		if i == warm {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		_, err := kb.Apply(ctx, u)
		must(t, err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / measured, float64(after.Mallocs-before.Mallocs) / measured
}

// TestDocUpdateAllocationScaling is the allocation guard on the O(Δ)
// update: what one document update allocates must not follow the size of
// the KB. At 4× the documents (size factor 8, as BenchmarkApplyDocDelta)
// the same stream may allocate at most 1.5× what it does at 1× — the
// remainder is the tied-weight fan-out, which does grow with the corpus —
// and at 1× an update stays under 450 KB. (With whole-table copies in
// factor.Patch and a snapshot skeleton rebuilt per publication the same
// measurement read 1 109 KB at 1×, 2 658 KB at 4×: ratio 2.4.)
func TestDocUpdateAllocationScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes the wire corpus at two sizes")
	}
	b1, o1 := docUpdateAllocs(t, 1)
	b4, o4 := docUpdateAllocs(t, 8)
	t.Logf("per document update: %.0f KB / %.0f objects at 1×, %.0f KB / %.0f objects at 4× (ratios %.2f / %.2f)",
		b1/1024, o1, b4/1024, o4, b4/b1, o4/o1)
	if b1 > 450<<10 {
		t.Errorf("a document update allocates %.0f KB at 1×, want ≤ 450 KB", b1/1024)
	}
	if r := b4 / b1; r > 1.5 {
		t.Errorf("bytes per update grow %.2f× from 1× to 4× the documents, want ≤ 1.5×", r)
	}
	if r := o4 / o1; r > 1.5 {
		t.Errorf("objects per update grow %.2f× from 1× to 4× the documents, want ≤ 1.5×", r)
	}
}

// TestCheckpointRecoveryAllocation guards what the persist layer hands the
// collector. A checkpoint encodes its image in place, in one buffer sized
// from the last image, and rebuilds the graph and renders the program
// beside it: 2.4 images here beside its re-materialization (2.7 under the
// race detector; 2.3 in all when the image still carried the engine and
// its Pr(0) graph; 9.7 with a buffer per section grown by doubling, then
// copied). The bound is three images beside one re-materialization,
// measured here on its own: the checkpoint's NewEngineCtx on the served
// graph. A recovery cuts the KB's strings from
// the image it read and its row, group and grounding records from slabs,
// not one object per persisted string and record (one per 24 bytes); since
// the image lost the engine (607 to 364 KB), the objects of re-parsing the
// program, compiling its rules and materializing the engine weigh against
// a smaller image: 6.2 k objects here, one per 60 bytes, with the parser
// cutting atoms, terms and bodies from slabs (9.1 k, one per 41 bytes, with
// an object or more per atom; 16.8 k with a map per rule variable set and
// a list grown per plan step).
// On a small durable KB these were most of the garbage and most of the
// live objects — the collector's pace and the cost of each collection,
// which lands on whatever update or recovery runs meanwhile.
func TestCheckpointRecoveryAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes the wire corpus")
	}
	dir := t.TempDir()
	w := newWireCorpus(t, 3, 1, 8)
	kb := w.materialized(t, deepdive.WithDataDir(dir))
	must(t, kb.Checkpoint(ctx))

	measure := func(f func()) (bytes, objects float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
	}
	ckptBytes, _ := measure(func() { must(t, kb.Checkpoint(ctx)) })
	served, _ := kb.Served()
	_, engOpts := kb.Engine()
	rematBytes, _ := measure(func() {
		_, err := inc.NewEngineCtx(ctx, served, engOpts)
		must(t, err)
	})
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ddkb"))
	must(t, err)
	if len(snaps) != 1 {
		t.Fatalf("snapshots after a checkpoint: %v", snaps)
	}
	st, err := os.Stat(snaps[0])
	must(t, err)
	image := float64(st.Size())
	must(t, kb.CloseNow())

	opts := []deepdive.Option{deepdive.WithSeed(w.seed), deepdive.WithDataDir(dir)}
	for name, udf := range kbc.UDFs() {
		opts = append(opts, deepdive.WithUDF(name, udf))
	}
	source := kbc.Program(w.sys, factor.Ratio, len(kbc.IterationNames))
	var back *deepdive.KB
	openBytes, openObjects := measure(func() { back, err = deepdive.OpenKB(source, opts...) })
	must(t, err)
	t.Cleanup(func() { back.CloseNow() })
	if !back.Recovered() {
		t.Fatal("OpenKB on the data directory did not recover")
	}
	t.Logf("image %.0f KB; a checkpoint allocates %.0f KB (%.1f images beside a re-materialization of %.0f KB), a recovery %.0f KB in %.0f objects (one per %.0f bytes of image)",
		image/1024, ckptBytes/1024, (ckptBytes-rematBytes)/image, rematBytes/1024, openBytes/1024, openObjects, image/openObjects)
	if ckptBytes > 3*image+rematBytes {
		t.Errorf("a checkpoint allocates %.1f images beside its re-materialization, want ≤ 3", (ckptBytes-rematBytes)/image)
	}
	if openObjects > image/48 {
		t.Errorf("a recovery allocates one object per %.0f bytes of image, want at most one per 48", image/openObjects)
	}
}

// ruleUpdateAllocs applies the six development iterations to the wire
// corpus at 1×, materialized without them, and returns the bytes and heap
// objects each rule update allocates, by iteration name.
func ruleUpdateAllocs(t *testing.T) (bytes, objects map[string]float64) {
	t.Helper()
	w := newWireCorpus(t, 3, 1, 0)
	kb := w.open(t, 0, 0)
	_, err := kb.Materialize(ctx)
	must(t, err)
	bytes, objects = map[string]float64{}, map[string]float64{}
	for _, name := range kbc.IterationNames {
		u := deepdive.Update{RuleSource: kbc.IterationRules(w.sys, name)}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := kb.Apply(ctx, u)
		runtime.ReadMemStats(&after)
		must(t, err)
		bytes[name] = float64(after.TotalAlloc - before.TotalAlloc)
		objects[name] = float64(after.Mallocs - before.Mallocs)
	}
	return bytes, objects
}

// TestRuleUpdateAllocations is the allocation guard on whole-rule updates:
// the heap objects of the three iterations that add a rule's groups (FE1,
// FE2, I1) on the wire corpus at 1×. With hash sets on the update path —
// a map per patched group for its variables, a map of (variable, group)
// pairs for adjacency and one of blanket pairs, maps to accumulate change
// sets — the same updates allocated 12 188 / 12 235 / 11 801 objects
// (1 979 / 2 375 / 1 542 KB); with id-indexed bookkeeping 7 083 / 6 982 /
// 6 757. (Validating and compiling the new rule without a map per rule and
// a list grown per plan step took them to 5 675 / 5 573 / 5 564.) FE1 and
// FE2 take the graph past the compaction threshold, so their commit builds
// no patch and the graph is rebuilt, and the whole-graph exact solve
// reuses its State and component arrays: 2 819 / 2 720 objects (1 161 /
// 1 569 KB), from 5 280 / 5 178 (1 625 / 2 197 KB) when they patched a
// graph the rebuild then discarded and solved on fresh arrays. I1 still
// patches: 4 969, from 5 224. The bounds leave about 15 % over each.
func TestRuleUpdateAllocations(t *testing.T) {
	maxObjects := map[string]float64{"FE1": 3300, "FE2": 3300, "I1": 5700}
	bytes, objects := ruleUpdateAllocs(t)
	for _, name := range kbc.IterationNames {
		t.Logf("%s: %.0f KB in %.0f objects", name, bytes[name]/1024, objects[name])
	}
	for _, name := range []string{"FE1", "FE2", "I1"} {
		if objects[name] > maxObjects[name] {
			t.Errorf("%s allocates %.0f objects, want ≤ %.0f", name, objects[name], maxObjects[name])
		}
	}
}
