package deepdive_test

// Tests for the quality autopilot's store refill: the update whose
// inference drains the store below the low-water mark re-materializes
// Pr(0) before it publishes, so it returns with the store full; refills are
// a deterministic function of the seed and the stream; a refill cancelled
// with its update publishes nothing and the next update lands it; and
// concurrent snapshot readers stay consistent across engine swaps
// (meaningful under -race). Only a sampling run over an update's remainder
// — the components past the enumeration bound — reads the store, so the
// tests grow a chain that is one such component.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"deepdive"
)

// rematKB builds the chain KB with a deliberately small store and a
// low-water mark one update crosses: a chainGrow update samples the whole
// chain, spending 120 of the 300 worlds.
func rematKB(t *testing.T, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	return chainMaterialized(t, append([]deepdive.Option{
		deepdive.WithMaterialization(300, 0.01),
		deepdive.WithInference(20, 120),
		deepdive.WithRematerialization(250, 0),
	}, opts...)...)
}

// TestRematLandsAndRefillsStore pins the happy path: the update that drains
// the store below the low-water mark returns with it already full again,
// one refill counted and one snapshot published, and the KB keeps serving
// sampling-strategy updates instead of falling back to variational for
// good.
func TestRematLandsAndRefillsStore(t *testing.T) {
	kb := rematKB(t)
	ctx := context.Background()

	before := kb.Autopilot()
	if before.StoreRemaining < before.LowWater {
		t.Fatalf("store already below low-water before any update: %+v", before)
	}
	epoch := kb.Snapshot().Epoch()

	res, err := kb.Apply(ctx, chainGrow(0))
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
	// The published marginals are the fresh store's means, an estimate of
	// the current distribution: every node stays resolvable and the
	// appended one leans on, like every node of the chain.
	if p, ok := snap.Marginal("On", deepdive.Tuple{"n40"}); !ok || p < 0.5 {
		t.Fatalf("post-refill marginal for the appended node = (%v, %v), want > 0.5", p, ok)
	}
	if s := snap.Stats().Autopilot; s == nil || s.Rematerializations != 1 || s.StoreRemaining != s.StoreLen {
		t.Fatalf("published snapshot does not carry the refill: %+v", s)
	}

	// The reset boundary is live: the next update draws on the fresh
	// store and runs the sampling strategy again.
	res, err = kb.Apply(ctx, chainGrow(1))
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
	for i := 0; i < 6; i++ {
		u := chainGrow(i)
		for _, kb := range []*deepdive.KB{a, b} {
			if _, err := kb.Apply(ctx, u); err != nil {
				t.Fatal(err)
			}
		}
		apA, apB := a.Autopilot(), b.Autopilot()
		if apA.Rematerializations != apB.Rematerializations || apA.StoreRemaining != apB.StoreRemaining {
			t.Fatalf("update %d: refills %d vs %d, store %d vs %d", i, apA.Rematerializations, apB.Rematerializations, apA.StoreRemaining, apB.StoreRemaining)
		}
		assertSameBits(t, marginalBits(a, "On"), marginalBits(b, "On"), fmt.Sprintf("update %d", i))
	}
	if n := a.Autopilot().Rematerializations; n < 2 {
		t.Fatalf("the stream refilled %d times, want at least 2", n)
	}
}

// TestRematCancelled: an update cancelled inside its refill follows the
// update's cancellation semantics — it returns the context's error,
// publishes nothing and installs no engine, and the refill counts as lost —
// and the next update lands the refill and publishes both appended nodes.
func TestRematCancelled(t *testing.T) {
	kb := rematKB(t)
	ctx := context.Background()
	snap := kb.Snapshot()

	if _, err := kb.Apply(kb.CancelAtRefill(ctx), chainGrow(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("update cancelled in its refill: err %v, want context.Canceled", err)
	}
	if got := kb.Snapshot(); got != snap {
		t.Fatalf("the cancelled update published epoch %d", got.Epoch())
	}
	ap := kb.Autopilot()
	if ap.Rematerializations != 0 || ap.RematPreempted != 1 || ap.StoreRemaining >= ap.LowWater {
		t.Fatalf("after the cancelled refill: %+v, want 0 refills, 1 lost, the store still below low-water", ap)
	}

	res, err := kb.Apply(ctx, chainGrow(1))
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
	for _, node := range []deepdive.Tuple{{"n40"}, {"n41"}} {
		if _, ok := kb.Snapshot().Marginal("On", node); !ok {
			t.Fatalf("node %v has no marginal after the refill", node)
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
				for _, tup := range s.Candidates("On") {
					if _, ok := s.Marginal("On", tup); !ok {
						err = fmt.Errorf("epoch %d: node %v lost its marginal across a swap", s.Epoch(), tup)
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
		tickets = append(tickets, q.Submit(markConflict(chainGrow(i), "Next")))
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
