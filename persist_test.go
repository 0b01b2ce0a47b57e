package deepdive_test

// Durability tests: checkpoint/restart round trips, the crash
// kill-point harness (recovery must serve marginals bit-identical to a
// never-crashed oracle at every injection point), WAL replay
// determinism across worker counts, and the store refills replay repeats.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"deepdive"
	"deepdive/internal/persist"
)

// persistSpouseKB is spouseKB for any testing.TB: program parsed, base data loaded, grounded, learned, inferred, and
// materialized.
func persistSpouseKB(tb testing.TB, opts ...deepdive.Option) *deepdive.KB {
	tb.Helper()
	kb, err := deepdive.OpenKB(spouseSource, append([]deepdive.Option{
		deepdive.WithUDF("phrase", phraseUDF),
		deepdive.WithSeed(7),
		deepdive.WithLearning(15, 0.3),
		deepdive.WithInference(30, 400),
		deepdive.WithMaterialization(600, 0.01),
	}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	bmust(tb, kb.Load("Sentence", []deepdive.Tuple{
		{"s1", "Alan and his wife Beth"},
		{"s2", "Carl and his wife Dana"},
		{"s3", "Eve met Frank"},
	}))
	bmust(tb, kb.Load("PersonMention", []deepdive.Tuple{
		{"a", "s1", "Alan"}, {"b", "s1", "Beth"},
		{"c", "s2", "Carl"}, {"d", "s2", "Dana"},
		{"e", "s3", "Eve"}, {"f", "s3", "Frank"},
	}))
	bmust(tb, kb.Load("Married", []deepdive.Tuple{
		{"Alan", "Beth"},
	}))
	ctx := context.Background()
	bmust(tb, kb.Init(ctx))
	if _, err := kb.Learn(ctx); err != nil {
		tb.Fatal(err)
	}
	if _, err := kb.Infer(ctx); err != nil {
		tb.Fatal(err)
	}
	if _, err := kb.Materialize(ctx); err != nil {
		tb.Fatal(err)
	}
	return kb
}

func bmust(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

// reopenSpouseKB restarts from dir with the standard options and
// asserts the KB actually recovered from disk rather than starting
// fresh.
func reopenSpouseKB(tb testing.TB, dir string, opts ...deepdive.Option) *deepdive.KB {
	tb.Helper()
	kb, err := deepdive.OpenKB(spouseSource, append([]deepdive.Option{
		deepdive.WithUDF("phrase", phraseUDF),
		deepdive.WithSeed(7),
		deepdive.WithLearning(15, 0.3),
		deepdive.WithInference(30, 400),
		deepdive.WithMaterialization(600, 0.01),
		deepdive.WithDataDir(dir),
	}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	if !kb.Recovered() {
		tb.Fatal("reopened KB did not recover from snapshot")
	}
	return kb
}

// spouseBits captures every HasSpouse candidate's marginal as raw
// float64 bits: the harness asserts bit-identity, not tolerance.
func spouseBits(kb *deepdive.KB) map[string]uint64 { return marginalBits(kb, "HasSpouse") }

// marginalBits is spouseBits for any variable relation.
func marginalBits(kb *deepdive.KB, relation string) map[string]uint64 {
	snap := kb.Snapshot()
	out := make(map[string]uint64)
	for _, c := range snap.Candidates(relation) {
		m, ok := snap.Marginal(relation, c)
		if !ok {
			continue
		}
		key := ""
		for _, f := range c {
			key += f + "\x00"
		}
		out[key] = math.Float64bits(m)
	}
	return out
}

func assertSameBits(tb testing.TB, want, got map[string]uint64, label string) {
	tb.Helper()
	if len(want) == 0 {
		tb.Fatalf("%s: empty oracle marginals", label)
	}
	if len(got) != len(want) {
		tb.Fatalf("%s: %d candidates, oracle has %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			tb.Fatalf("%s: candidate %q missing", label, k)
		}
		if g != w {
			tb.Fatalf("%s: candidate %q marginal bits %x, oracle %x (%v vs %v)",
				label, k, g, w, math.Float64frombits(g), math.Float64frombits(w))
		}
	}
}

// docDelta is the recovery tests' document delta. Even documents are
// unsupervised — a scoped finish that skips learning and re-estimates the
// document's own component — and odd ones arrive married: their evidence
// makes the finish stage learn the weights they ground, on the induced
// subgraph of the evidence-bearing components tied to them, and
// re-estimate every component a moved weight reaches. Recovery must
// replay both kinds, and their deletions, bit for bit.
func docDelta(i int) deepdive.Update {
	u := docUpdate(i)
	if i%2 == 1 {
		m := u.Inserts["PersonMention"]
		u.Inserts["Married"] = []deepdive.Tuple{{m[0][2], m[1][2]}}
	}
	return u
}

// faultArm injects a single failure at one kill point, then disarms.
type faultArm struct {
	mu    sync.Mutex
	point string
	fired int
}

func (f *faultArm) hook(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p == f.point {
		f.point = ""
		f.fired++
		return errors.New("injected crash")
	}
	return nil
}

func (f *faultArm) arm(p string) {
	f.mu.Lock()
	f.point = p
	f.mu.Unlock()
}

func (f *faultArm) firedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

func TestCheckpointRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	kb := persistSpouseKB(t, deepdive.WithDataDir(dir))
	bmust(t, kb.Checkpoint(ctx))
	materialized := kb.Stats().Materialized
	for i := 0; i < 3; i++ {
		if _, err := kb.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := spouseBits(kb)
	wantGraph, wantWeights := servedImage(kb)
	learned := kb.Stats().Learned
	bmust(t, kb.Close())

	// Restart replays the three logged updates on top of the snapshot.
	kb2 := reopenSpouseKB(t, dir)
	assertSameBits(t, want, spouseBits(kb2), "after restart")
	assertSameServed(t, wantGraph, wantWeights, kb2, "after restart")
	// The restored KB ran neither Learn nor Infer: it records neither. It
	// materialized what the checkpoint re-materialized, and records that.
	if st := kb2.Stats(); learned == (deepdive.Solved{}) || st.Learned != (deepdive.Solved{}) ||
		st.Inferred != (deepdive.Solved{}) || materialized == (deepdive.Solved{}) || st.Materialized != materialized {
		t.Fatalf("restored KB records %+v (the original learned %+v, and materialized %+v at the checkpoint)", st, learned, materialized)
	}

	// The recovered KB is live: it takes updates and checkpoints.
	if _, err := kb2.Apply(ctx, docDelta(7)); err != nil {
		t.Fatal(err)
	}
	bmust(t, kb2.Checkpoint(ctx))
	// A delete right after the checkpoint is patched in, tombstoning
	// groundings of the compacted graph by their flat-pool handles; replay
	// repeats it on the graph recovery derives from the restored grounding,
	// by the handles that derivation assigned.
	candidates := len(spouseBits(kb2))
	if _, err := kb2.Apply(ctx, deepdive.Update{Deletes: map[string][]deepdive.Tuple{
		"PersonMention": docDelta(0).Inserts["PersonMention"][:1],
	}}); err != nil {
		t.Fatal(err)
	}
	want2 := spouseBits(kb2)
	wantGraph, wantWeights = servedImage(kb2)
	if g, _ := kb2.Served(); !g.Patched() || len(want2) >= candidates {
		t.Fatalf("the delete compacted the graph, or left %d of %d candidates", len(want2), candidates)
	}
	bmust(t, kb2.Close())

	// Second restart lands on the new snapshot and replays the delete: the
	// served graph — derived from the restored grounding, carrying the
	// persisted weights, then patched — is the live one, byte for byte.
	kb3 := reopenSpouseKB(t, dir)
	defer kb3.Close()
	assertSameBits(t, want2, spouseBits(kb3), "after second restart")
	assertSameServed(t, wantGraph, wantWeights, kb3, "after second restart")

	// Only the newest generation survives a successful checkpoint.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ddkb"))
	bmust(t, err)
	if len(snaps) != 1 {
		t.Fatalf("stale snapshots not removed: %v", snaps)
	}
}

// servedImage returns the encoded image of the graph the KB serves and a
// copy of its weights.
func servedImage(kb *deepdive.KB) ([]byte, []float64) {
	g, _ := kb.Served()
	var b persist.Buf
	g.AppendSnapshot(&b)
	return b.Bytes(), slices.Clone(g.Weights())
}

// assertSameServed checks that kb serves the graph whose image and weights
// servedImage recorded, bit for bit.
func assertSameServed(tb testing.TB, image []byte, weights []float64, kb *deepdive.KB, label string) {
	tb.Helper()
	gotImage, gotWeights := servedImage(kb)
	if len(gotWeights) != len(weights) {
		tb.Fatalf("%s: %d weights served, want %d", label, len(gotWeights), len(weights))
	}
	for i, w := range weights {
		if math.Float64bits(gotWeights[i]) != math.Float64bits(w) {
			tb.Fatalf("%s: weight %d is %v, want %v", label, i, gotWeights[i], w)
		}
	}
	if !bytes.Equal(gotImage, image) {
		tb.Fatalf("%s: the served graph's image differs (%d bytes, want %d)", label, len(gotImage), len(image))
	}
}

func TestCheckpointRequiresSetup(t *testing.T) {
	kb := persistSpouseKB(t) // no data dir
	defer kb.Close()
	if err := kb.Checkpoint(context.Background()); err == nil {
		t.Fatal("Checkpoint without WithDataDir succeeded")
	}

	kb2, err := deepdive.OpenKB(spouseSource,
		deepdive.WithUDF("phrase", phraseUDF),
		deepdive.WithDataDir(t.TempDir()))
	bmust(t, err)
	defer kb2.Close()
	if kb2.Recovered() {
		t.Fatal("empty data dir reported as recovered")
	}
	if err := kb2.Checkpoint(context.Background()); err == nil {
		t.Fatal("Checkpoint before Init succeeded")
	}
}

// TestCrashTornWALTail simulates a crash mid-append: garbage lands
// after the last complete record. Recovery truncates the torn tail and
// serves exactly the acknowledged updates.
func TestCrashTornWALTail(t *testing.T) {
	ctx := context.Background()

	oracle := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()))
	defer oracle.Close()
	bmust(t, oracle.Checkpoint(ctx))
	for i := 0; i < 2; i++ {
		if _, err := oracle.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := spouseBits(oracle)

	dir := t.TempDir()
	victim := persistSpouseKB(t, deepdive.WithDataDir(dir))
	bmust(t, victim.Checkpoint(ctx))
	for i := 0; i < 2; i++ {
		if _, err := victim.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: abandon the KB and scribble a torn record onto the live
	// segment, as a power cut mid-write would.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	bmust(t, err)
	if len(wals) != 1 {
		t.Fatalf("expected one WAL segment, got %v", wals)
	}
	f, err := os.OpenFile(wals[0], os.O_WRONLY|os.O_APPEND, 0)
	bmust(t, err)
	if _, err := f.Write([]byte{0x57, 0x44, 0x52, 0x31, 0x03, 0x00}); err != nil {
		t.Fatal(err)
	}
	bmust(t, f.Close())

	kb := reopenSpouseKB(t, dir)
	defer kb.Close()
	assertSameBits(t, want, spouseBits(kb), "torn WAL tail")

	// The trimmed segment keeps taking appends after recovery.
	if _, err := kb.Apply(ctx, docDelta(9)); err != nil {
		t.Fatal(err)
	}
}

// TestCrashWALAppendLost covers the kill point where the record itself
// is lost (crash before the write reached the log). The update was
// never acknowledged — Apply returns an error, durability suspends
// until repair — and recovery serves the state without it.
func TestCrashWALAppendLost(t *testing.T) {
	ctx := context.Background()

	oracle := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()))
	defer oracle.Close()
	bmust(t, oracle.Checkpoint(ctx))
	for i := 0; i < 2; i++ {
		if _, err := oracle.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := spouseBits(oracle)

	dir := t.TempDir()
	arm := &faultArm{}
	// Auto-repair off: this test pins the latched-broken behavior itself
	// (the self-healing loop has its own tests in health_test.go).
	victim := persistSpouseKB(t, deepdive.WithDataDir(dir), deepdive.WithLesions(deepdive.Lesions{NoAutoRepair: true}))
	victim.InstallFaultHook(arm.hook)
	bmust(t, victim.Checkpoint(ctx))
	for i := 0; i < 2; i++ {
		if _, err := victim.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	arm.arm(deepdive.FaultWALAppend)
	if _, err := victim.Apply(ctx, docDelta(2)); !errors.Is(err, deepdive.ErrDurabilitySuspended) {
		t.Fatalf("update with lost WAL record: got %v, want ErrDurabilitySuspended", err)
	}
	if arm.firedCount() != 1 {
		t.Fatal("fault hook did not fire")
	}
	// Durability is latched broken: later updates refuse too.
	if _, err := victim.Apply(ctx, docDelta(3)); !errors.Is(err, deepdive.ErrDurabilitySuspended) {
		t.Fatalf("update on broken chain: got %v, want ErrDurabilitySuspended", err)
	}

	// Crash here: recovery sees only the two acknowledged updates.
	kb := reopenSpouseKB(t, dir)
	defer kb.Close()
	assertSameBits(t, want, spouseBits(kb), "lost WAL append")
	if _, err := kb.Apply(ctx, docDelta(9)); err != nil {
		t.Fatal(err)
	}
}

// TestWALRepairCheckpoint is the no-crash continuation of the lost
// append: Checkpoint re-establishes the durable chain and updates flow
// again.
func TestWALRepairCheckpoint(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	arm := &faultArm{}
	kb := persistSpouseKB(t, deepdive.WithDataDir(dir), deepdive.WithLesions(deepdive.Lesions{NoAutoRepair: true}))
	kb.InstallFaultHook(arm.hook)
	bmust(t, kb.Checkpoint(ctx))
	if _, err := kb.Apply(ctx, docDelta(0)); err != nil {
		t.Fatal(err)
	}
	arm.arm(deepdive.FaultWALAppend)
	if _, err := kb.Apply(ctx, docDelta(1)); err == nil {
		t.Fatal("lost-record update acknowledged")
	}
	if _, err := kb.Apply(ctx, docDelta(2)); err == nil {
		t.Fatal("update accepted on broken chain")
	}
	bmust(t, kb.Checkpoint(ctx)) // repair
	if _, err := kb.Apply(ctx, docDelta(3)); err != nil {
		t.Fatalf("update after repair: %v", err)
	}
	want := spouseBits(kb)
	bmust(t, kb.Close())

	kb2 := reopenSpouseKB(t, dir)
	defer kb2.Close()
	assertSameBits(t, want, spouseBits(kb2), "after repair checkpoint")
}

// TestCheckpointKeepsALaterBreak: a checkpoint writes its image after
// releasing the writer lock, and an update may break the new segment's
// chain in that window. The break must outlive the checkpoint — the image
// predates the broken update's commit — until a repair checkpoint covers
// it; recovery then matches the live KB.
func TestCheckpointKeepsALaterBreak(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	kb := persistSpouseKB(t, deepdive.WithDataDir(dir), deepdive.WithLesions(deepdive.Lesions{NoAutoRepair: true}))
	bmust(t, kb.Checkpoint(ctx))
	arm := &faultArm{}
	var applyErr error
	kb.InstallFaultHook(func(p string) error {
		if p == deepdive.FaultSnapWrite && arm.firedCount() == 0 {
			arm.arm(deepdive.FaultWALAppend)
			_, applyErr = kb.Apply(ctx, docDelta(0))
		}
		return arm.hook(p)
	})
	bmust(t, kb.Checkpoint(ctx))
	if applyErr == nil || arm.firedCount() != 1 {
		t.Fatalf("update in the checkpoint's write window: err %v, %d faults fired", applyErr, arm.firedCount())
	}
	if h := kb.Health(); !h.WALBroken || h.State == deepdive.Healthy {
		t.Fatalf("checkpoint cleared a break from after its rotation: %+v", h)
	}
	if _, err := kb.Apply(ctx, docDelta(1)); err == nil {
		t.Fatal("update accepted on broken chain")
	}
	bmust(t, kb.Checkpoint(ctx)) // repair
	if h := kb.Health(); h.WALBroken || h.State != deepdive.Healthy {
		t.Fatalf("after the repair checkpoint: %+v", h)
	}
	if _, err := kb.Apply(ctx, docDelta(2)); err != nil {
		t.Fatalf("update after repair: %v", err)
	}
	want := spouseBits(kb)
	bmust(t, kb.Close())

	kb2 := reopenSpouseKB(t, dir)
	defer kb2.Close()
	assertSameBits(t, want, spouseBits(kb2), "after the repair checkpoint")
}

// TestCrashLoggedUnpublished covers the window where the record is
// durable but the crash hits before the update's inference publishes:
// replay completes the update, so recovery matches an oracle that
// applied it fully.
func TestCrashLoggedUnpublished(t *testing.T) {
	ctx := context.Background()

	oracle := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()))
	defer oracle.Close()
	bmust(t, oracle.Checkpoint(ctx))
	for i := 0; i < 3; i++ {
		if _, err := oracle.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := spouseBits(oracle)

	dir := t.TempDir()
	arm := &faultArm{}
	victim := persistSpouseKB(t, deepdive.WithDataDir(dir))
	victim.InstallFaultHook(arm.hook)
	bmust(t, victim.Checkpoint(ctx))
	for i := 0; i < 2; i++ {
		if _, err := victim.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	arm.arm(deepdive.FaultWALAppended)
	if _, err := victim.Apply(ctx, docDelta(2)); err == nil {
		t.Fatal("crashed-before-publish update reported success")
	}
	if arm.firedCount() != 1 {
		t.Fatal("fault hook did not fire")
	}

	kb := reopenSpouseKB(t, dir)
	defer kb.Close()
	assertSameBits(t, want, spouseBits(kb), "logged unpublished")
}

// TestCrashDeleteReinsertTail covers a WAL tail that deletes a document
// and re-inserts the very same tuples: the revived rows return to their
// original slots in the relations' iteration order and index buckets, so
// the replayed joins enumerate — and intern variables, weights and
// groups — exactly as the never-crashed process did. The crash lands on
// the last record (logged, never published), after a checkpoint taken
// while the document was deleted, so recovery restores relations that
// hold its tombstones and replays the revival on top of them.
func TestCrashDeleteReinsertTail(t *testing.T) {
	ctx := context.Background()
	run := func(kb *deepdive.KB, arm *faultArm) {
		bmust(t, kb.Checkpoint(ctx))
		step := func(u deepdive.Update, last bool) {
			if last && arm != nil {
				arm.arm(deepdive.FaultWALAppended)
			}
			if _, err := kb.Apply(ctx, u); (err != nil) != (last && arm != nil) {
				t.Fatalf("apply: %v", err)
			}
		}
		step(docDelta(0), false)
		step(docDelta(1), false)
		step(deepdive.Update{Deletes: docDelta(0).Inserts}, false)
		bmust(t, kb.Checkpoint(ctx))
		step(docDelta(2), false)
		step(docDelta(0), false) // the same tuples again
		step(deepdive.Update{Deletes: docDelta(1).Inserts}, false)
		step(docDelta(1), true)
	}
	oracle := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()))
	defer oracle.Close()
	run(oracle, nil)
	want := spouseBits(oracle)

	dir := t.TempDir()
	arm := &faultArm{}
	victim := persistSpouseKB(t, deepdive.WithDataDir(dir))
	victim.InstallFaultHook(arm.hook)
	run(victim, arm)
	if arm.firedCount() != 1 {
		t.Fatal("fault hook did not fire")
	}
	kb := reopenSpouseKB(t, dir)
	defer kb.Close()
	assertSameBits(t, want, spouseBits(kb), "delete + re-insert tail")
	// Both KBs keep agreeing on the next update.
	for _, k := range []*deepdive.KB{oracle, kb} {
		if _, err := k.Apply(ctx, docDelta(3)); err != nil {
			t.Fatal(err)
		}
	}
	assertSameBits(t, spouseBits(oracle), spouseBits(kb), "update after recovery")
}

// crashedCheckpointOracle runs the shared sequence for the two
// snapshot-write kill points with no fault injected: checkpoint, two
// updates, a second (successful) checkpoint, two more updates.
func crashedCheckpointOracle(t *testing.T) map[string]uint64 {
	t.Helper()
	ctx := context.Background()
	kb := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()))
	defer kb.Close()
	bmust(t, kb.Checkpoint(ctx))
	for i := 0; i < 2; i++ {
		if _, err := kb.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	bmust(t, kb.Checkpoint(ctx))
	for i := 2; i < 4; i++ {
		if _, err := kb.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	return spouseBits(kb)
}

// crashedCheckpointVictim runs the same sequence with a fault injected
// at `point` during the second checkpoint, then abandons the KB
// (simulated crash) and returns its data dir.
func crashedCheckpointVictim(t *testing.T, point string) string {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	arm := &faultArm{}
	kb := persistSpouseKB(t, deepdive.WithDataDir(dir))
	kb.InstallFaultHook(arm.hook)
	bmust(t, kb.Checkpoint(ctx))
	for i := 0; i < 2; i++ {
		if _, err := kb.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	arm.arm(point)
	if err := kb.Checkpoint(ctx); err == nil {
		t.Fatal("faulted checkpoint reported success")
	}
	// The WAL rotated before the kill point either way; post-crash
	// updates commit to the new segment.
	for i := 2; i < 4; i++ {
		if _, err := kb.Apply(ctx, docDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCrashMidSnapshotWrite kills the checkpoint after WAL rotation but
// before the snapshot file exists: recovery must fall back to the
// previous generation and replay across the rotation boundary,
// reproducing the crashed checkpoint's compaction along the way.
func TestCrashMidSnapshotWrite(t *testing.T) {
	want := crashedCheckpointOracle(t)
	dir := crashedCheckpointVictim(t, deepdive.FaultSnapWrite)

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ddkb"))
	bmust(t, err)
	if len(snaps) != 1 {
		t.Fatalf("expected only the first snapshot on disk, got %v", snaps)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	bmust(t, err)
	if len(wals) != 2 {
		t.Fatalf("expected both WAL generations on disk, got %v", wals)
	}

	kb := reopenSpouseKB(t, dir)
	defer kb.Close()
	assertSameBits(t, want, spouseBits(kb), "mid snapshot write")
	if _, err := kb.Apply(context.Background(), docDelta(9)); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSnapshotWrittenPreCleanup kills the checkpoint after the new
// snapshot is durable but before stale generations are removed:
// recovery uses the newest image and ignores the leftovers, and the
// next successful checkpoint sweeps them.
func TestCrashSnapshotWrittenPreCleanup(t *testing.T) {
	want := crashedCheckpointOracle(t)
	dir := crashedCheckpointVictim(t, deepdive.FaultSnapWritten)

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ddkb"))
	bmust(t, err)
	if len(snaps) != 2 {
		t.Fatalf("expected stale + new snapshots on disk, got %v", snaps)
	}

	kb := reopenSpouseKB(t, dir)
	assertSameBits(t, want, spouseBits(kb), "snapshot written pre-cleanup")

	bmust(t, kb.Checkpoint(context.Background()))
	bmust(t, kb.Close())
	snaps, err = filepath.Glob(filepath.Join(dir, "snap-*.ddkb"))
	bmust(t, err)
	if len(snaps) != 1 {
		t.Fatalf("stale generations survived the next checkpoint: %v", snaps)
	}
}

// TestWALReplayDeterminism: for each worker count, restarting from
// snapshot + WAL reproduces the live process's marginals bit-for-bit.
// (Marginals differ across worker counts; each count must be
// self-consistent.)
func TestWALReplayDeterminism(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(map[int]string{1: "sequential", 4: "parallel4"}[par], func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			kb := persistSpouseKB(t, deepdive.WithDataDir(dir),
				deepdive.WithParallelism(par))
			bmust(t, kb.Checkpoint(ctx))
			stream := []deepdive.Update{docDelta(0), docDelta(1), docDelta(2), docDelta(3),
				{Deletes: docDelta(1).Inserts}, docDelta(4)}
			subgraphLearns, partialInfers := 0, 0
			for _, u := range stream {
				res, err := kb.Apply(ctx, u)
				if err != nil {
					t.Fatal(err)
				}
				vars := kb.Stats().Variables
				if res.ScopeVars > 0 && res.ScopeVars < vars {
					subgraphLearns++
				}
				if res.DirtyVars < vars {
					partialInfers++
				}
			}
			if subgraphLearns == 0 || partialInfers == 0 {
				t.Fatalf("the stream must replay scoped finishes: %d learned on a subgraph, %d re-estimated part of the graph",
					subgraphLearns, partialInfers)
			}
			want := spouseBits(kb)
			bmust(t, kb.Close())

			kb2 := reopenSpouseKB(t, dir, deepdive.WithParallelism(par))
			defer kb2.Close()
			assertSameBits(t, want, spouseBits(kb2), "replay determinism")
		})
	}
}

// TestWALReplayRefills: a store refill is a step of the update that
// runs it, seeded by the persisted launch count, so WAL replay repeats it.
// A KB whose stream refills after its last checkpoint is dropped without
// another one; the reopened KB serves the same marginal bits, holds the
// same store and counts the same refills and runs as the KB that never
// crashed. The stream grows the chain KB, whose updates sample.
func TestWALReplayRefills(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := []deepdive.Option{deepdive.WithRematerialization(450, 0), deepdive.WithMaterialization(600, 0.01), deepdive.WithInference(30, 100)}
	kb := chainMaterialized(t, append(opts, deepdive.WithDataDir(dir))...)
	bmust(t, kb.Checkpoint(ctx))
	apply := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := kb.Apply(ctx, chainGrow(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(0, 4)
	bmust(t, kb.Checkpoint(ctx))
	atCheckpoint := kb.Autopilot().Rematerializations
	apply(4, 10)
	live := kb.Autopilot()
	if live.Rematerializations <= atCheckpoint || live.SamplingRuns == 0 {
		t.Fatalf("no refill after the last checkpoint (%d before it, %d after; %d sampling runs)", atCheckpoint, live.Rematerializations, live.SamplingRuns)
	}
	want := marginalBits(kb, "On")

	// Crash: drop the KB without checkpointing.
	kb2, err := deepdive.OpenKB(chainSource, append([]deepdive.Option{deepdive.WithSeed(7), deepdive.WithDataDir(dir)}, opts...)...)
	bmust(t, err)
	defer kb2.Close()
	if !kb2.Recovered() {
		t.Fatal("reopened KB did not recover from snapshot")
	}
	assertSameBits(t, want, marginalBits(kb2, "On"), "refills replayed")
	if got := kb2.Autopilot(); got != live {
		t.Fatalf("recovered autopilot %+v, the live KB's %+v", got, live)
	}
}

// TestCheckpointRematerializesSampling: a checkpoint ends the
// materialization epoch, and recovery materializes where it did. On the
// chain KB, whose updates sample, the store's position and the engine's
// seed decide the served bits. (a) A KB checkpointed partway through a
// stream that has drawn part of its store, then streamed on and dropped,
// recovers to the same marginal bits and autopilot state. (b) One whose
// second checkpoint crashed before its image landed, then streamed into
// the rotated segment, recovers from the first snapshot by replaying
// across the crossing — re-materializing there, as the crashed checkpoint
// did — to the same bits and state.
func TestCheckpointRematerializesSampling(t *testing.T) {
	ctx := context.Background()
	opts := []deepdive.Option{deepdive.WithMaterialization(600, 0.01), deepdive.WithInference(30, 100)}
	for _, crash := range []bool{false, true} {
		label := map[bool]string{false: "checkpoint", true: "crashed second checkpoint"}[crash]
		dir := t.TempDir()
		arm := &faultArm{}
		kb := chainMaterialized(t, append(opts, deepdive.WithDataDir(dir))...)
		kb.InstallFaultHook(arm.hook)
		apply := func(from, to int) {
			for i := from; i < to; i++ {
				if _, err := kb.Apply(ctx, chainGrow(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if crash {
			bmust(t, kb.Checkpoint(ctx))
		}
		apply(0, 3)
		before := kb.Autopilot()
		if before.SamplingRuns == 0 || before.StoreRemaining == before.StoreLen {
			t.Fatalf("%s: the stream drew nothing from the store: %+v", label, before)
		}
		if crash {
			arm.arm(deepdive.FaultSnapWrite)
			if err := kb.Checkpoint(ctx); err == nil {
				t.Fatal("the faulted checkpoint reported success")
			}
		} else {
			bmust(t, kb.Checkpoint(ctx))
		}
		if ap := kb.Autopilot(); ap.StoreRemaining != ap.StoreLen {
			t.Fatalf("%s: the checkpoint left a drawn-down store: %+v", label, ap)
		}
		apply(3, 8)
		live := kb.Autopilot()
		if live.SamplingRuns <= before.SamplingRuns {
			t.Fatalf("%s: no sampling update after the checkpoint: %+v", label, live)
		}
		want := marginalBits(kb, "On")

		// Crash: drop the KB without checkpointing.
		kb2, err := deepdive.OpenKB(chainSource, append([]deepdive.Option{deepdive.WithSeed(7), deepdive.WithDataDir(dir)}, opts...)...)
		bmust(t, err)
		if !kb2.Recovered() {
			t.Fatalf("%s: the reopened KB did not recover from snapshot", label)
		}
		assertSameBits(t, want, marginalBits(kb2, "On"), label)
		if got := kb2.Autopilot(); got != live {
			t.Fatalf("%s: recovered autopilot %+v, the live KB's %+v", label, got, live)
		}
		bmust(t, kb2.Close())
	}
}
