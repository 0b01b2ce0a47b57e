package deepdive_test

// Tests for the ground→learn→infer update path behind the writer lock: a
// differential harness asserting the update queue publishes the exact same
// epochs and marginals as direct Apply calls, concurrent writers
// serializing into one epoch stream, per-ticket cancellation semantics,
// CloseNow, and concurrent snapshot readers racing a queued stream (run
// under -race).

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepdive"
)

// conflictMark makes an update conflict with every other marked update:
// it inserts and deletes one shared marker tuple (inserts apply before
// deletes, so the marker nets out of the database) touching a common
// (relation, tuple) key. Marked updates therefore never coalesce, which
// pins the queue's batching to one update per batch independent of
// worker timing — the property the differential tests need to compare
// the queue's epoch stream with direct Apply calls'.
func conflictMark(u deepdive.Update) deepdive.Update { return markConflict(u, "Sentence") }

// markConflict is conflictMark with the marker in any two-column relation.
func markConflict(u deepdive.Update, relation string) deepdive.Update {
	marker := deepdive.Tuple{"conflict-marker", "pipeline"}
	if u.Inserts == nil {
		u.Inserts = map[string][]deepdive.Tuple{}
	}
	if u.Deletes == nil {
		u.Deletes = map[string][]deepdive.Tuple{}
	}
	u.Inserts[relation] = append(u.Inserts[relation], marker)
	u.Deletes[relation] = append(u.Deletes[relation], marker)
	return u
}

// pipelineStream builds a randomized, conflict-chained update stream:
// new two-mention documents with occasional retractions of an earlier
// document's mention.
func pipelineStream(n int) []deepdive.Update {
	rng := rand.New(rand.NewSource(11))
	retracted := map[int]bool{}
	var ups []deepdive.Update
	for i := 0; i < n; i++ {
		u := docUpdate(100 + i)
		if i > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(i)
			if !retracted[j] {
				retracted[j] = true
				sid := fmt.Sprintf("sx%d", 100+j)
				m1 := fmt.Sprintf("p%da", 100+j)
				u.Deletes = map[string][]deepdive.Tuple{
					"PersonMention": {{m1, sid, "Pat" + sid}},
				}
			}
		}
		ups = append(ups, conflictMark(u))
	}
	return ups
}

// statsEqual compares GraphStats with the autopilot state compared by
// value: GraphStats carries it as a pointer, so plain struct equality
// would compare identities and always fail across two KBs. Comparing the
// values keeps the autopilot's decisions (strategy counts, probe
// histogram, store level) inside the bit-identical differential.
func statsEqual(a, b deepdive.GraphStats) bool {
	pa, pb := a.Autopilot, b.Autopilot
	a.Autopilot, b.Autopilot = nil, nil
	if a != b {
		return false
	}
	if (pa == nil) != (pb == nil) {
		return false
	}
	return pa == nil || *pa == *pb
}

// requireSnapshotsEqual asserts two snapshots are bit-identical views:
// same epoch stream position, same grounding lineage, same candidates,
// same marginal for every candidate fact.
func requireSnapshotsEqual(t *testing.T, a, b *deepdive.Snapshot, la, lb string) {
	t.Helper()
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epoch: %s=%d %s=%d", la, a.Epoch(), lb, b.Epoch())
	}
	if a.GroundVersion() != b.GroundVersion() || a.GraphEpoch() != b.GraphEpoch() {
		t.Fatalf("lineage: %s=(%d,%d) %s=(%d,%d)", la, a.GroundVersion(), a.GraphEpoch(),
			lb, b.GroundVersion(), b.GraphEpoch())
	}
	if !statsEqual(a.Stats(), b.Stats()) {
		t.Fatalf("stats: %s=%+v %s=%+v", la, a.Stats(), lb, b.Stats())
	}
	ca, cb := a.Candidates("HasSpouse"), b.Candidates("HasSpouse")
	if len(ca) != len(cb) {
		t.Fatalf("candidates: %s=%d %s=%d", la, len(ca), lb, len(cb))
	}
	for i, tup := range ca {
		if tup.Key() != cb[i].Key() {
			t.Fatalf("candidate %d: %s=%v %s=%v", i, la, tup, lb, cb[i])
		}
		ma, oka := a.Marginal("HasSpouse", tup)
		mb, okb := b.Marginal("HasSpouse", tup)
		if oka != okb || ma != mb {
			t.Fatalf("marginal %v: %s=(%v,%v) %s=(%v,%v)", tup, la, ma, oka, lb, mb, okb)
		}
	}
}

// TestQueueMatchesDirectApply is the queue's differential harness: the
// same conflict-chained update stream runs through the update queue and
// through direct synchronous Apply calls, and both must publish
// bit-identical final views — the queue adds asynchrony and coalescing,
// nothing observable beyond them.
func TestQueueMatchesDirectApply(t *testing.T) {
	ups := pipelineStream(8)

	queued := spouseKB(t)
	defer queued.Close()
	q := queued.Updates()
	var tickets []*deepdive.Ticket
	for _, u := range ups {
		tickets = append(tickets, q.Submit(u))
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if got := q.Batches(); got != uint64(len(ups)) {
		t.Fatalf("batches = %d, want %d (conflict chaining must force singleton batches)", got, len(ups))
	}

	direct := spouseKB(t)
	defer direct.Close()
	for i, u := range ups {
		if _, err := direct.Apply(context.Background(), u); err != nil {
			t.Fatalf("direct apply %d: %v", i, err)
		}
	}
	requireSnapshotsEqual(t, queued.Snapshot(), direct.Snapshot(), "queued", "direct")
}

// TestConcurrentAppliesSerialize pins the writer lock: four goroutines
// call Apply while the queue applies more, every update conflict-marked
// so each is its own batch. Every update must publish its own epoch, the
// epochs consecutive, and a fresh KB applying the same updates one by one
// in epoch order must publish the same view — concurrent writers behave
// as some serial order of them. Meaningful under -race.
func TestConcurrentAppliesSerialize(t *testing.T) {
	const writers, perWriter, queued = 4, 3, 4
	kb := spouseKB(t)
	defer kb.Close()
	e0 := kb.Snapshot().Epoch()

	type applied struct {
		u     deepdive.Update
		epoch uint64
	}
	results := make(chan applied, writers*perWriter+queued)
	errs := make(chan error, writers*perWriter+queued)
	q := kb.Updates()
	var tickets []*deepdive.Ticket
	var queuedUps []deepdive.Update
	for i := 0; i < queued; i++ {
		u := conflictMark(docUpdate(600 + i))
		queuedUps = append(queuedUps, u)
		tickets = append(tickets, q.Submit(u))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				u := conflictMark(docUpdate(500 + 10*w + i))
				res, err := kb.Apply(context.Background(), u)
				if err != nil {
					errs <- err
					return
				}
				results <- applied{u, res.Epoch}
			}
		}(w)
	}
	for i, tk := range tickets {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("queued update %d: %v", i, err)
		}
		if res.Coalesced != 1 {
			t.Fatalf("queued update %d coalesced %d updates, want 1", i, res.Coalesced)
		}
		results <- applied{queuedUps[i], res.Epoch}
	}
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var order []applied
	for r := range results {
		order = append(order, r)
	}
	slices.SortFunc(order, func(a, b applied) int { return cmp.Compare(a.epoch, b.epoch) })
	if len(order) != writers*perWriter+queued {
		t.Fatalf("%d updates applied, want %d", len(order), writers*perWriter+queued)
	}
	for i, r := range order {
		if r.epoch != e0+1+uint64(i) {
			t.Fatalf("epochs %v: update %d published epoch %d, want %d (distinct and consecutive)",
				order, i, r.epoch, e0+1+uint64(i))
		}
	}

	serial := spouseKB(t)
	defer serial.Close()
	for i, r := range order {
		if _, err := serial.Apply(context.Background(), r.u); err != nil {
			t.Fatalf("serial apply %d: %v", i, err)
		}
	}
	requireSnapshotsEqual(t, kb.Snapshot(), serial.Snapshot(), "concurrent", "serial")
}

// TestSubmitCtxPendingCancellation pins the per-ticket contract: a
// context cancelled while the update is still pending retracts it — the
// ticket resolves to the context error, nothing is applied — and later
// updates are unaffected.
func TestSubmitCtxPendingCancellation(t *testing.T) {
	kb := spouseKB(t)
	defer kb.Close()
	q := kb.Updates()
	q.Pause()

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := q.SubmitCtx(ctx, docUpdate(300))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	survivor := q.Submit(docUpdate(301))
	q.Resume()

	if _, werr := doomed.Wait(context.Background()); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled pending ticket resolved %v, want context.Canceled", werr)
	}
	res, werr := survivor.Wait(context.Background())
	if werr != nil {
		t.Fatalf("survivor ticket: %v", werr)
	}
	if res.Coalesced != 1 {
		t.Fatalf("survivor batch coalesced %d updates, want 1 (cancelled update must not be applied)", res.Coalesced)
	}
	// The retracted document must not be in the published view.
	if got := kb.Snapshot().Candidates("HasSpouse"); len(got) == 0 {
		t.Fatal("survivor update not applied")
	}
	sid := "sx300"
	for _, tup := range kb.Snapshot().Candidates("HasSpouse") {
		if len(tup) == 2 && (tup[0] == "p300a" || tup[0] == "p300b") {
			t.Fatalf("retracted update's candidate %v was applied; sid=%s", tup, sid)
		}
	}
}

// TestQueueCloseNow pins the lifecycle contract: CloseNow cancels the
// queue's lifecycle context, so pending batches resolve to the context
// error without being applied and the queue shuts down.
func TestQueueCloseNow(t *testing.T) {
	kb := spouseKB(t)
	q := kb.Updates()
	q.Pause()
	var tickets []*deepdive.Ticket
	for i := 0; i < 3; i++ {
		tickets = append(tickets, q.Submit(docUpdate(400+i)))
	}
	epoch := kb.Snapshot().Epoch()
	q.CloseNow()
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("ticket %d resolved %v, want context.Canceled", i, err)
		}
	}
	if got := kb.Snapshot().Epoch(); got != epoch {
		t.Fatalf("CloseNow published epoch %d (was %d); aborted batches must publish nothing", got, epoch)
	}
	if tk := q.Submit(docUpdate(409)); tk != nil {
		if _, err := tk.Wait(context.Background()); !errors.Is(err, deepdive.ErrQueueClosed) {
			t.Fatalf("post-close submit resolved %v, want ErrQueueClosed", err)
		}
	}
}

// TestSnapshotReadersDuringPipelinedStream races lock-free snapshot
// readers against a queued stream — parallel delta grounding, learning
// and inference under the writer lock — and checks every observed view is
// internally consistent. Meaningful under -race.
func TestSnapshotReadersDuringPipelinedStream(t *testing.T) {
	kb := spouseKB(t, deepdive.WithParallelism(2))
	defer kb.Close()
	q := kb.Updates()

	stop := make(chan struct{})
	readerDone := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func() {
			var err error
			for {
				select {
				case <-stop:
					readerDone <- err
					return
				default:
				}
				s := kb.Snapshot()
				cands := s.Candidates("HasSpouse")
				exts := s.Extractions("HasSpouse", 0.0)
				if len(exts) > len(cands) {
					err = fmt.Errorf("snapshot epoch %d: %d extractions from %d candidates",
						s.Epoch(), len(exts), len(cands))
				}
				for _, tup := range cands {
					s.Marginal("HasSpouse", tup)
				}
			}
		}()
	}

	ups := pipelineStream(6)
	var tickets []*deepdive.Ticket
	for _, u := range ups {
		tickets = append(tickets, q.Submit(u))
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	close(stop)
	for r := 0; r < 4; r++ {
		if err := <-readerDone; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := kb.Snapshot().GroundVersion(), uint64(1+len(ups)); got != want {
		t.Fatalf("final ground version %d, want %d", got, want)
	}
}
