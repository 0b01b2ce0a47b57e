package deepdive_test

// Tests for the quality autopilot's store refill: the update whose
// inference drains the store below the low-water mark re-materializes
// Pr(0) before it publishes, so it returns with the store full; refills are
// a deterministic function of the seed and the stream; a refill cancelled
// with its update publishes nothing and the next update lands it; and
// concurrent snapshot readers stay consistent across engine swaps
// (meaningful under -race).

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"deepdive"
)

// rematKB builds the spouse KB with a deliberately small store and an
// aggressive low-water mark, so a single update's inference drains the
// store below the mark and triggers a refill. (The mark sits at 290 of
// 300 because a scoped update spends only its share of the worlds it
// replays: a new document's two variables of eight, 30 of 120.)
func rematKB(t *testing.T, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	return spouseKB(t, append([]deepdive.Option{
		deepdive.WithMaterialization(300, 0.01),
		deepdive.WithInference(20, 120),
		deepdive.WithRematerialization(290, 0),
	}, opts...)...)
}

// TestRematLandsAndRefillsStore pins the happy path: the update that drains
// the store below the low-water mark returns with it already full again,
// one refill counted and one snapshot published, and the KB keeps serving
// sampling-strategy updates instead of falling back to variational for
// good.
func TestRematLandsAndRefillsStore(t *testing.T) {
	kb := rematKB(t)
	defer kb.Close()
	ctx := context.Background()

	before := kb.Autopilot()
	if before.StoreRemaining < before.LowWater {
		t.Fatalf("store already below low-water before any update: %+v", before)
	}
	epoch := kb.Snapshot().Epoch()

	res, err := kb.Apply(ctx, docUpdate(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != deepdive.StrategySampling {
		t.Fatalf("first update strategy = %v, want sampling (store is full)", res.Strategy)
	}
	ap := kb.Autopilot()
	if ap.Rematerializations != 1 || ap.RematPreempted != 0 {
		t.Fatalf("after the draining update: %d refills, %d lost, want 1 and 0", ap.Rematerializations, ap.RematPreempted)
	}
	if ap.StoreRemaining != ap.StoreLen || ap.StoreLen != 300 {
		t.Fatalf("refilled store not full: %d/%d", ap.StoreRemaining, ap.StoreLen)
	}
	snap := kb.Snapshot()
	if snap.Epoch() != epoch+1 || res.Epoch != snap.Epoch() {
		t.Fatalf("the refilling update published epochs %d..%d (result %d), want one publication", epoch+1, snap.Epoch(), res.Epoch)
	}
	// The published marginals are the fresh store's means, an i.i.d.
	// estimate of the current distribution: every candidate stays
	// resolvable and the update's wife-feature pair stays confidently
	// extracted.
	if p, ok := snap.Marginal("HasSpouse", deepdive.Tuple{"p0a", "p0b"}); !ok || p < 0.5 {
		t.Fatalf("post-refill marginal for inserted pair = (%v, %v), want > 0.5", p, ok)
	}
	if s := snap.Stats().Autopilot; s == nil || s.Rematerializations != 1 || s.StoreRemaining != s.StoreLen {
		t.Fatalf("published snapshot does not carry the refill: %+v", s)
	}

	// The reset boundary is live: the next update draws on the fresh
	// store and runs the sampling strategy again.
	res, err = kb.Apply(ctx, docUpdate(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != deepdive.StrategySampling {
		t.Fatalf("post-refill update strategy = %v, want sampling off the refilled store", res.Strategy)
	}
}

// TestRematDeterministic: two KBs opened with the same seed and fed the
// same stream refill at the same updates and publish bit-identical
// marginals after every one of them.
func TestRematDeterministic(t *testing.T) {
	ctx := context.Background()
	a, b := rematKB(t), rematKB(t)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 6; i++ {
		u := docDelta(i)
		for _, kb := range []*deepdive.KB{a, b} {
			if _, err := kb.Apply(ctx, u); err != nil {
				t.Fatal(err)
			}
		}
		apA, apB := a.Autopilot(), b.Autopilot()
		if apA.Rematerializations != apB.Rematerializations || apA.StoreRemaining != apB.StoreRemaining {
			t.Fatalf("update %d: refills %d vs %d, store %d vs %d", i, apA.Rematerializations, apB.Rematerializations, apA.StoreRemaining, apB.StoreRemaining)
		}
		assertSameBits(t, spouseBits(a), spouseBits(b), fmt.Sprintf("update %d", i))
	}
	if n := a.Autopilot().Rematerializations; n < 2 {
		t.Fatalf("the stream refilled %d times, want at least 2", n)
	}
}

// TestRematCancelled: an update cancelled inside its refill follows the
// update's cancellation semantics — it returns the context's error,
// publishes nothing and installs no engine, and the refill counts as lost —
// and the next update lands the refill and publishes both documents.
func TestRematCancelled(t *testing.T) {
	kb := rematKB(t)
	defer kb.Close()
	ctx := context.Background()
	snap := kb.Snapshot()

	if _, err := kb.Apply(kb.CancelAtRefill(ctx), docUpdate(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("update cancelled in its refill: err %v, want context.Canceled", err)
	}
	if got := kb.Snapshot(); got != snap {
		t.Fatalf("the cancelled update published epoch %d", got.Epoch())
	}
	ap := kb.Autopilot()
	if ap.Rematerializations != 0 || ap.RematPreempted != 1 || ap.StoreRemaining >= ap.LowWater {
		t.Fatalf("after the cancelled refill: %+v, want 0 refills, 1 lost, the store still below low-water", ap)
	}

	res, err := kb.Apply(ctx, docUpdate(1))
	if err != nil {
		t.Fatal(err)
	}
	ap = kb.Autopilot()
	if ap.Rematerializations != 1 || ap.StoreRemaining != ap.StoreLen {
		t.Fatalf("the next update did not land the refill: %+v", ap)
	}
	if res.Epoch != snap.Epoch()+1 {
		t.Fatalf("the next update published epoch %d, want %d", res.Epoch, snap.Epoch()+1)
	}
	for _, p := range []deepdive.Tuple{{"p0a", "p0b"}, {"p1a", "p1b"}} {
		if _, ok := kb.Snapshot().Marginal("HasSpouse", p); !ok {
			t.Fatalf("candidate %v has no marginal after the refill", p)
		}
	}
}

// TestRematRaceWithReadersAndApplies races lock-free snapshot readers
// against a pipelined update stream with refills armed, so engine swaps,
// delta grounding, and reads all interleave. Meaningful under -race; the
// assertions check every observed view stays internally consistent across
// swaps.
func TestRematRaceWithReadersAndApplies(t *testing.T) {
	kb := rematKB(t, deepdive.WithParallelism(2))
	defer kb.Close()

	stop := make(chan struct{})
	readerDone := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func() {
			var err error
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					readerDone <- err
					return
				default:
				}
				s := kb.Snapshot()
				if e := s.Epoch(); e < lastEpoch {
					err = fmt.Errorf("epoch went backwards: %d then %d", lastEpoch, e)
				} else {
					lastEpoch = e
				}
				for _, tup := range s.Candidates("HasSpouse") {
					if _, ok := s.Marginal("HasSpouse", tup); !ok {
						err = fmt.Errorf("epoch %d: candidate %v lost its marginal across a swap", s.Epoch(), tup)
					}
				}
				if ap := s.Stats().Autopilot; ap != nil && ap.StoreRemaining > ap.StoreLen {
					err = fmt.Errorf("epoch %d: impossible store level %d/%d", s.Epoch(), ap.StoreRemaining, ap.StoreLen)
				}
				kb.Autopilot() // race the live-stats path too
			}
		}()
	}

	q := kb.Updates()
	var tickets []*deepdive.Ticket
	for i := 0; i < 8; i++ {
		tickets = append(tickets, q.Submit(conflictMark(docUpdate(100+i))))
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
	if ap := kb.Autopilot(); ap.Rematerializations < 1 {
		t.Fatalf("no refill landed across the stream: %+v", ap)
	}
	if got, want := kb.Snapshot().GroundVersion(), uint64(9); got != want {
		t.Fatalf("final ground version %d, want %d", got, want)
	}
}
