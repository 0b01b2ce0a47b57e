package deepdive_test

// Lifecycle edge tests for UpdateQueue, complementing the backpressure
// regressions in backpressure_test.go: SubmitCtx behaviour while the
// queue is paused, Close racing Pause/Resume hammering, and the ordering
// of backpressure-slot releases when batches are taken and cancelled
// updates are retracted. The races here are only meaningful under -race.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"deepdive"
)

// TestSubmitCtxDuringPause pins three paused-queue contracts at once:
// SubmitCtx below the bound enqueues without blocking while paused;
// cancelling a pending update while paused does NOT retract it eagerly
// (retraction is lazy — it happens when the worker next scans the
// queue, so the cancelled update keeps holding its backpressure slot);
// and on Resume the retraction releases that slot ahead of the batch
// take, letting a blocked submitter in.
func TestSubmitCtxDuringPause(t *testing.T) {
	kb := spouseKB(t, deepdive.WithMaxPending(2))
	defer kb.Close()
	q := kb.Updates()
	q.Pause()

	// Below the bound: SubmitCtx enqueues immediately even though the
	// worker is paused.
	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := q.SubmitCtx(ctx, docUpdate(510))
	if err != nil {
		t.Fatal(err)
	}
	live, err := q.SubmitCtx(context.Background(), docUpdate(511))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}

	// The bound is hit; park a third submitter on the slot wait.
	submitted := make(chan *deepdive.Ticket, 1)
	go func() {
		tk, serr := q.SubmitCtx(context.Background(), docUpdate(512))
		if serr == nil {
			submitted <- tk
		}
	}()

	// Cancel the pending update while paused: retraction is lazy, so the
	// blocked submitter must stay blocked and Pending unchanged.
	cancel()
	select {
	case <-submitted:
		t.Fatal("blocked submitter got a slot while the queue was paused; retraction must be lazy")
	case <-time.After(150 * time.Millisecond):
	}
	if got := q.Pending(); got != 2 {
		t.Fatalf("Pending after cancel while paused = %d, want 2 (lazy retraction)", got)
	}
	select {
	case <-doomed.Done():
		t.Fatal("cancelled pending ticket resolved while the queue was paused")
	default:
	}

	// Resume: the worker retracts the cancelled update (releasing its
	// slot before taking the batch), applies the survivor, and the
	// blocked submitter slots in.
	q.Resume()
	var third *deepdive.Ticket
	select {
	case third = <-submitted:
	case <-time.After(30 * time.Second):
		t.Fatal("blocked submitter still stuck after Resume")
	}

	if _, werr := doomed.Wait(context.Background()); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled ticket resolved %v, want context.Canceled", werr)
	}
	for name, tk := range map[string]*deepdive.Ticket{"live": live, "third": third} {
		if _, werr := tk.Wait(context.Background()); werr != nil {
			t.Fatalf("%s ticket: %v", name, werr)
		}
	}

	// The retracted document must not have been applied; the others must.
	applied := map[string]bool{}
	for _, tup := range kb.Snapshot().Candidates("HasSpouse") {
		if len(tup) == 2 {
			applied[tup[0]] = true
		}
	}
	if applied["p510a"] {
		t.Fatal("retracted update's candidate p510a was applied")
	}
	for _, want := range []string{"p511a", "p512a"} {
		if !applied[want] {
			t.Fatalf("surviving update's candidate %s missing from the published view", want)
		}
	}
}

// TestQueueBackpressureReleaseOrdering parks several submitters on a
// single backpressure slot and checks the release chain: each taken
// batch frees exactly the tokens it consumed, so every parked submitter
// eventually acquires the slot and applies — none starve, none are lost,
// and none sneak in before a token is actually freed. Run under -race.
func TestQueueBackpressureReleaseOrdering(t *testing.T) {
	kb := spouseKB(t, deepdive.WithMaxPending(1))
	defer kb.Close()
	q := kb.Updates()
	q.Pause()

	first := q.Submit(docUpdate(520))
	const waiters = 4
	var wg sync.WaitGroup
	tks := make(chan *deepdive.Ticket, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := q.SubmitCtx(context.Background(), docUpdate(521+i))
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			tks <- tk
		}(i)
	}

	// All waiters must be parked: the one slot is held by `first` and
	// nothing drains while paused.
	time.Sleep(100 * time.Millisecond)
	if got := q.Pending(); got != 1 {
		t.Fatalf("Pending with all waiters parked = %d, want 1", got)
	}

	q.Resume()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("parked submitters never all acquired the slot after Resume")
	}
	close(tks)

	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	if _, err := first.Wait(wctx); err != nil {
		t.Fatalf("first ticket: %v", err)
	}
	n := 0
	for tk := range tks {
		if _, err := tk.Wait(wctx); err != nil {
			t.Fatalf("waiter ticket %d: %v", n, err)
		}
		n++
	}
	if n != waiters {
		t.Fatalf("resolved %d waiter tickets, want %d", n, waiters)
	}
	if got := q.Applied(); got != waiters+1 {
		t.Fatalf("Applied = %d, want %d", got, waiters+1)
	}
}

// TestQueueCloseRacingPauseResume hammers Pause/Resume and concurrent
// submitters while Close runs. Close must win — it clears the paused
// flag, drains what was accepted, and stops — without deadlocking
// against the hammer, and every ticket handed out must resolve to
// either a successful apply or ErrQueueClosed. Run under -race.
func TestQueueCloseRacingPauseResume(t *testing.T) {
	kb := spouseKB(t, deepdive.WithMaxPending(2))
	q := kb.Updates()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Pause/Resume hammer: races the flag against Close's paused=false.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.Pause()
			q.Resume()
		}
	}()

	// Submitters: keep the pending queue and the slot channel busy so
	// Close has real work to drain and real waiters to refuse.
	var tmu sync.Mutex
	var tickets []*deepdive.Ticket
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := q.SubmitCtx(context.Background(), docUpdate(600+w*1000+i))
				if err != nil {
					return
				}
				tmu.Lock()
				tickets = append(tickets, tk)
				tmu.Unlock()
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		kb.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("Close deadlocked against the Pause/Resume hammer")
	}
	close(stop)
	wg.Wait()

	// Every handed-out ticket must be resolved — applied before the
	// drain finished, or refused with ErrQueueClosed. Nothing may leak.
	tmu.Lock()
	defer tmu.Unlock()
	if len(tickets) == 0 {
		t.Fatal("no submissions made it in before Close; the race window was empty")
	}
	var applied, refused int
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("ticket %d unresolved after Close returned", i)
		}
		_, err := tk.Wait(nil)
		switch {
		case err == nil:
			applied++
		case errors.Is(err, deepdive.ErrQueueClosed):
			refused++
		default:
			t.Fatalf("ticket %d resolved %v, want nil or ErrQueueClosed", i, err)
		}
	}
	if applied == 0 {
		t.Fatalf("all %d tickets refused; expected the pre-Close stream to apply some", len(tickets))
	}
	t.Logf("close race: %d applied, %d refused of %d tickets", applied, refused, len(tickets))

	// The queue must stay closed: a late submit resolves ErrQueueClosed.
	if tk := q.Submit(docUpdate(999)); tk != nil {
		if _, err := tk.Wait(nil); !errors.Is(err, deepdive.ErrQueueClosed) {
			t.Fatalf("post-Close submit resolved %v, want ErrQueueClosed", err)
		}
	}
}

// TestQueueRejectsMalformedTuples: a tuple of the wrong arity, a value
// holding the reserved 0x1f byte, or a delete of a tuple the relation does
// not hold used to pass the update's up-front validation and panic the
// queue goroutine — the process — from inside the database. Each is now
// refused whole before the first mutation, with ErrInvalidTuple, and the
// queue goes on to apply the next update.
func TestQueueRejectsMalformedTuples(t *testing.T) {
	kb := spouseKB(t)
	defer kb.Close()
	before := kb.Snapshot()
	for name, u := range map[string]deepdive.Update{
		"short tuple":        {Inserts: map[string][]deepdive.Tuple{"Sentence": {{"one-column"}}}},
		"long tuple":         {Deletes: map[string][]deepdive.Tuple{"Married": {{"Alan", "Beth", "extra"}}}},
		"reserved byte":      {Inserts: map[string][]deepdive.Tuple{"Sentence": {{"s9", "split\x1fhere"}}}},
		"absent delete":      {Deletes: map[string][]deepdive.Tuple{"Married": {{"Nobody", "Noone"}}}},
		"delete twice":       {Deletes: map[string][]deepdive.Tuple{"Married": {{"Alan", "Beth"}, {"Alan", "Beth"}}}},
		"bad among the good": {Inserts: map[string][]deepdive.Tuple{"Sentence": {{"s9", "fine"}, {"s10"}}, "Married": {{"Eve", "Frank"}}}},
	} {
		res, err := kb.Updates().Submit(u).Wait(ctx)
		if res != nil || !errors.Is(err, deepdive.ErrInvalidTuple) {
			t.Fatalf("%s: result %+v, error %v; want ErrInvalidTuple", name, res, err)
		}
		if _, err := kb.Apply(ctx, u); !errors.Is(err, deepdive.ErrInvalidTuple) {
			t.Fatalf("%s: Apply error %v; want ErrInvalidTuple", name, err)
		}
	}
	if err := kb.Load("Sentence", []deepdive.Tuple{{"late"}}); err == nil {
		t.Fatal("Load after Init accepted a tuple")
	}
	if now := kb.Snapshot(); now != before || len(kb.Relation("Sentence")) != 3 || len(kb.Relation("Married")) != 1 {
		t.Fatalf("a refused update changed the KB: epoch %d → %d, %d sentences, %d married pairs",
			before.Epoch(), now.Epoch(), len(kb.Relation("Sentence")), len(kb.Relation("Married")))
	}
	// The queue is alive, and an update that takes back what it inserts is
	// not a delete of something absent.
	u := docUpdate(1)
	u.Inserts["Married"] = []deepdive.Tuple{{"Eve", "Frank"}}
	u.Deletes = map[string][]deepdive.Tuple{"Married": {{"Eve", "Frank"}}}
	res, err := kb.Updates().Submit(u).Wait(ctx)
	must(t, err)
	if res.Epoch != before.Epoch()+1 || len(kb.Relation("Married")) != 1 {
		t.Fatalf("the update after the refusals: %+v, %d married pairs", res, len(kb.Relation("Married")))
	}

	// Before Init the same check guards Load.
	raw, err := deepdive.OpenKB(spouseSource, deepdive.WithUDF("phrase", phraseUDF))
	must(t, err)
	if err := raw.Load("Sentence", []deepdive.Tuple{{"one-column"}}); !errors.Is(err, deepdive.ErrInvalidTuple) {
		t.Fatalf("Load of a one-column sentence: %v", err)
	}
}
