package deepdive_test

// Tests for the quality autopilot's background re-materializer: the swap
// must land and refill the consumed store, any write must preempt an
// in-flight materialization (no torn graph reads — meaningful under
// -race), concurrent snapshot readers must stay consistent across engine
// swaps, and Close/CloseNow during a materialization must cancel it and
// leave no goroutine behind.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"deepdive"
)

// rematKB builds the spouse KB with a deliberately small store and an
// aggressive low-water mark, so a single update's inference drains the
// store below the mark and arms the re-materializer. (The mark sits at
// 290 of 300 because a scoped update spends only its share of the worlds
// it replays: a new document's two variables of eight, 30 of 120.)
func rematKB(t *testing.T, budget time.Duration, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	return spouseKB(t, append([]deepdive.Option{
		deepdive.WithMaterialization(300, 0.01),
		deepdive.WithInference(20, 120),
		deepdive.WithRematerialization(290, budget),
	}, opts...)...)
}

// waitAutopilot polls the live autopilot state until cond holds.
func waitAutopilot(t *testing.T, kb *deepdive.KB, what string, cond func(deepdive.AutopilotStats) bool) deepdive.AutopilotStats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ap := kb.Autopilot()
		if cond(ap) {
			return ap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; autopilot: %+v", what, ap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRematLandsAndRefillsStore pins the happy path: one update drains
// the store below the low-water mark, the background re-materialization
// swaps in a full fresh store, publishes a snapshot, and the KB keeps
// serving sampling-strategy updates instead of falling back to
// variational for good.
func TestRematLandsAndRefillsStore(t *testing.T) {
	kb := rematKB(t, 0)
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

	ap := waitAutopilot(t, kb, "re-materialization to land", func(ap deepdive.AutopilotStats) bool {
		return ap.Rematerializations >= 1 && !ap.Rematerializing
	})
	if ap.StoreRemaining != ap.StoreLen || ap.StoreLen < 300 {
		t.Fatalf("swapped store not full: %d/%d", ap.StoreRemaining, ap.StoreLen)
	}
	snap := kb.Snapshot()
	if snap.Epoch() <= epoch+1 {
		t.Fatalf("re-materialization did not publish (epoch %d, update published %d)", snap.Epoch(), epoch+1)
	}
	// The swapped-in marginals are a fresh i.i.d. estimate of the current
	// distribution: every candidate stays resolvable and the update's
	// wife-feature pair stays confidently extracted.
	if p, ok := snap.Marginal("HasSpouse", deepdive.Tuple{"p0a", "p0b"}); !ok || p < 0.5 {
		t.Fatalf("post-swap marginal for inserted pair = (%v, %v), want > 0.5", p, ok)
	}
	if s := snap.Stats().Autopilot; s == nil || s.Rematerializations < 1 {
		t.Fatalf("published snapshot does not carry the swap: %+v", s)
	}

	// The reset boundary is live: the next update draws on the fresh
	// store and runs the sampling strategy again.
	res, err = kb.Apply(ctx, docUpdate(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != deepdive.StrategySampling {
		t.Fatalf("post-swap update strategy = %v, want sampling off the refilled store", res.Strategy)
	}
}

// TestRematPreemptedByApply pins the write-preemption contract: a write
// arriving while a re-materialization is sampling cancels it (the swap
// is abandoned, counted in RematPreempted) and the write proceeds
// normally; a later idle window still lands a fresh materialization.
func TestRematPreemptedByApply(t *testing.T) {
	// A long budget holds the materialization in its cancellable sampling
	// loop so the next Apply reliably catches it in flight.
	kb := rematKB(t, 2*time.Second)
	defer kb.Close()
	ctx := context.Background()

	if _, err := kb.Apply(ctx, docUpdate(0)); err != nil {
		t.Fatal(err)
	}
	waitAutopilot(t, kb, "re-materialization to start", func(ap deepdive.AutopilotStats) bool {
		return ap.Rematerializing
	})
	if _, err := kb.Apply(ctx, docUpdate(1)); err != nil {
		t.Fatal(err)
	}
	if got := kb.Autopilot().RematPreempted; got < 1 {
		t.Fatalf("RematPreempted = %d after preempting write, want >= 1", got)
	}

	// The preempting update re-armed the trigger on its way out; with the
	// writers now idle that relaunched materialization must land.
	ap := waitAutopilot(t, kb, "post-preemption re-materialization", func(ap deepdive.AutopilotStats) bool {
		return ap.Rematerializations >= 1
	})
	if ap.StoreRemaining < ap.LowWater {
		t.Fatalf("landed swap left the store below low-water: %+v", ap)
	}
}

// TestRematRaceWithReadersAndApplies races lock-free snapshot readers
// against a pipelined update stream with the re-materializer armed on a
// short budget, so engine swaps, preemptions, delta grounding, and
// reads all interleave. Meaningful under -race; the assertions check
// every observed view stays internally consistent across swaps.
func TestRematRaceWithReadersAndApplies(t *testing.T) {
	kb := rematKB(t, 20*time.Millisecond, deepdive.WithParallelism(2))
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
	// Quiesce: the last update re-armed the materializer; let one land
	// while the readers are still hammering.
	waitAutopilot(t, kb, "a swap to land under reader load", func(ap deepdive.AutopilotStats) bool {
		return ap.Rematerializations >= 1
	})
	close(stop)
	for r := 0; r < 4; r++ {
		if err := <-readerDone; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := kb.Snapshot().GroundVersion(), uint64(9); got != want {
		t.Fatalf("final ground version %d, want %d", got, want)
	}
}

// TestRematCloseDuringMaterialization pins the shutdown contract: Close
// (drain) and CloseNow (abort) arriving while a re-materialization is
// sampling must cancel it promptly, wait the goroutine out, and leave
// nothing running — the KB keeps serving its last snapshot.
func TestRematCloseDuringMaterialization(t *testing.T) {
	for _, mode := range []string{"close", "closenow"} {
		t.Run(mode, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			kb := rematKB(t, 5*time.Second)
			if _, err := kb.Apply(context.Background(), docUpdate(0)); err != nil {
				t.Fatal(err)
			}
			waitAutopilot(t, kb, "re-materialization to start", func(ap deepdive.AutopilotStats) bool {
				return ap.Rematerializing
			})
			snap := kb.Snapshot()

			start := time.Now()
			if mode == "close" {
				kb.Close()
			} else {
				kb.CloseNow()
			}
			// A 5s sampling budget was pending; shutdown must cancel it
			// cooperatively, not wait it out.
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("%s took %v with a materialization in flight", mode, elapsed)
			}
			if ap := kb.Autopilot(); ap.Rematerializing {
				t.Fatalf("%s returned with a run still marked in flight: %+v", mode, ap)
			}
			if got := kb.Snapshot(); got != snap {
				t.Fatalf("%s published a snapshot (epoch %d -> %d)", mode, snap.Epoch(), got.Epoch())
			}

			// Drain assertion: every KB goroutine (queue worker and
			// re-materializer) must be gone. Poll briefly — exiting
			// goroutines unwind asynchronously after Close returns.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%s leaked goroutines: %d running, baseline %d", mode, n, baseline)
			}
		})
	}
}
