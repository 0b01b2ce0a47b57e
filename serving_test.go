package deepdive_test

// Tests for the snapshot-isolated serving API: concurrent lock-free
// readers under -race while updates apply, context cancellation of the
// long-running operations, and the coalescing update queue.

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"deepdive"
)

// spouseKB builds the spouse KB used across the serving tests: loaded,
// grounded, learned, inferred, and materialized.
func spouseKB(t *testing.T, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	kb := spouseKBRaw(t, opts...)
	ctx := context.Background()
	must(t, kb.Init(ctx))
	if _, err := kb.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Infer(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	return kb
}

// spouseKBRaw is spouseKB before Init: program parsed and base data
// loaded only.
func spouseKBRaw(t *testing.T, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	kb, err := deepdive.OpenKB(spouseSource, append([]deepdive.Option{
		deepdive.WithUDF("phrase", phraseUDF),
		deepdive.WithSeed(7),
		deepdive.WithLearning(15, 0.3),
		deepdive.WithInference(30, 400),
		deepdive.WithMaterialization(600, 0.01),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	must(t, kb.Load("Sentence", []deepdive.Tuple{
		{"s1", "Alan and his wife Beth"},
		{"s2", "Carl and his wife Dana"},
		{"s3", "Eve met Frank"},
	}))
	must(t, kb.Load("PersonMention", []deepdive.Tuple{
		{"a", "s1", "Alan"}, {"b", "s1", "Beth"},
		{"c", "s2", "Carl"}, {"d", "s2", "Dana"},
		{"e", "s3", "Eve"}, {"f", "s3", "Frank"},
	}))
	must(t, kb.Load("Married", []deepdive.Tuple{
		{"Alan", "Beth"},
	}))
	return kb
}

// chainSource couples every node to its successor: conditioned on nothing,
// n nodes are one connected component of n free variables. A Seed node is
// labelled on.
const chainSource = `
@relation Node(a).
@relation Next(a, b).
@relation Seed(a).
@variable On(a).
@relation On_Ev(a, label).

@semantics(ratio).

Cand: On(a) :- Node(a).
Prior: On(a) :- Node(a) weight = 0.3.
Chain: On(b) :- On(a), Next(a, b) weight = 0.8.
Sup: On_Ev(a, true) :- On(a), Seed(a).
`

// chainKB is the chain program over n nodes after its initial grounding,
// the first seeds of them labelled.
func chainKB(t *testing.T, n, seeds int, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	kb, err := deepdive.OpenKB(chainSource, append([]deepdive.Option{deepdive.WithSeed(7)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	var nodes, next []deepdive.Tuple
	for i := 0; i < n; i++ {
		nodes = append(nodes, deepdive.Tuple{fmt.Sprint("n", i)})
		if i > 0 {
			next = append(next, deepdive.Tuple{fmt.Sprint("n", i-1), fmt.Sprint("n", i)})
		}
	}
	must(t, kb.Load("Node", nodes))
	must(t, kb.Load("Next", next))
	must(t, kb.Load("Seed", nodes[:seeds]))
	must(t, kb.Init(context.Background()))
	return kb
}

// chainMaterialized is chainKB over 40 unlabelled nodes, learned, inferred
// and materialized. Its one component of 40 free variables is past the
// enumeration bound under any budget, so an update touching it leaves that
// component to the optimizer: the KB on which the sampling and variational
// strategies, the sample store and its refill still run.
func chainMaterialized(t *testing.T, opts ...deepdive.Option) *deepdive.KB {
	t.Helper()
	kb := chainKB(t, 40, 0, opts...)
	for _, pass := range []func(context.Context) (time.Duration, error){kb.Learn, kb.Infer, kb.Materialize} {
		if _, err := pass(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return kb
}

// chainGrow is the i-th update of a stream growing chainMaterialized's
// chain: it appends node n(40+i) after n(39+i).
func chainGrow(i int) deepdive.Update {
	prev, node := fmt.Sprint("n", 39+i), fmt.Sprint("n", 40+i)
	return deepdive.Update{Inserts: map[string][]deepdive.Tuple{"Node": {{node}}, "Next": {{prev, node}}}}
}

// docUpdate builds the update inserting one two-mention document; the
// resulting ordered mention pairs always arrive atomically in one update.
func docUpdate(i int) deepdive.Update {
	sid := fmt.Sprintf("sx%d", i)
	m1 := fmt.Sprintf("p%da", i)
	m2 := fmt.Sprintf("p%db", i)
	return deepdive.Update{
		Inserts: map[string][]deepdive.Tuple{
			"Sentence":      {{sid, "Pat and his wife Sam"}},
			"PersonMention": {{m1, sid, "Pat" + sid}, {m2, sid, "Sam" + sid}},
		},
	}
}

// TestSnapshotConcurrentReaders is the serving proof: reader goroutines
// hammer Snapshot queries with zero coordination while the writer applies
// a stream of updates. Run under -race it demonstrates the lock-free
// read path; the assertions demonstrate snapshot isolation — every
// observed view is internally consistent (epochs monotone per reader,
// candidate pairs of one document never half-visible, every candidate
// resolvable to a marginal within the same snapshot).
func TestSnapshotConcurrentReaders(t *testing.T) {
	kb := spouseKB(t)
	base := len(kb.Snapshot().Candidates("HasSpouse"))

	const readers = 6
	const updates = 5
	done := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var lastEpoch uint64
			lastCands := 0
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				snap := kb.Snapshot()
				if e := snap.Epoch(); e < lastEpoch {
					errs <- fmt.Errorf("epoch went backwards: %d then %d", lastEpoch, e)
					return
				} else {
					lastEpoch = e
				}
				cands := snap.Candidates("HasSpouse")
				// Each update inserts one document whose two mentions ground
				// two ordered pairs atomically: a half-applied update would
				// show an odd candidate count or a shrinking KB.
				if len(cands)%2 != 0 {
					errs <- fmt.Errorf("odd candidate count %d: half-applied update visible", len(cands))
					return
				}
				if len(cands) < lastCands {
					errs <- fmt.Errorf("candidates shrank: %d then %d", lastCands, len(cands))
					return
				}
				lastCands = len(cands)
				for _, c := range cands {
					if _, ok := snap.Marginal("HasSpouse", c); !ok {
						errs <- fmt.Errorf("epoch %d: candidate %v has no marginal in its own snapshot", snap.Epoch(), c)
						return
					}
				}
				snap.Extractions("HasSpouse", 0.5)
			}
		}()
	}

	for i := 0; i < updates; i++ {
		if _, err := kb.Apply(context.Background(), docUpdate(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	close(done)
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	snap := kb.Snapshot()
	if got := len(snap.Candidates("HasSpouse")); got != base+2*updates {
		t.Fatalf("final candidates = %d, want %d", got, base+2*updates)
	}
	if v := snap.GroundVersion(); v != 1+updates {
		t.Fatalf("ground version = %d, want %d", v, 1+updates)
	}
}

// TestKBContextCancellation proves Learn/Infer/Apply return promptly on
// cancellation and leave the KB consistent: no snapshot is published from
// a cancelled run, and the KB keeps working afterwards.
func TestKBContextCancellation(t *testing.T) {
	kb := spouseKB(t)
	before := kb.Snapshot()

	// Already-cancelled context: immediate error, nothing published.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := kb.Learn(cancelled); err != context.Canceled {
		t.Fatalf("Learn(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := kb.Infer(cancelled); err != context.Canceled {
		t.Fatalf("Infer(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := kb.Materialize(cancelled); err != context.Canceled {
		t.Fatalf("Materialize(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := kb.Apply(cancelled, docUpdate(0)); err != context.Canceled {
		t.Fatalf("Apply(cancelled) err = %v, want context.Canceled", err)
	}
	if got := kb.Snapshot(); got != before {
		t.Fatal("cancelled operations published a snapshot")
	}

	// Mid-flight cancellation of an otherwise very long inference: the
	// cooperative per-sweep check must return well before the full run.
	// Every component of the spouse graph enumerates, so its Infer finishes
	// before any cancel could fire whatever the budget; the chain program
	// couples 40 variables into one component past inc.MaxStrawmanVars,
	// which no budget enumerates — 5e7 sweeps of it would take a minute.
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel2()
	}()
	kbLong := chainKB(t, 40, 0, deepdive.WithInference(50_000_000, 1))
	epochBefore := kbLong.Snapshot().Epoch()
	start := time.Now()
	_, err := kbLong.Infer(ctx)
	if err != context.Canceled {
		t.Fatalf("Infer err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled Infer took %v; cooperative check not reached", elapsed)
	}
	if e := kbLong.Snapshot().Epoch(); e != epochBefore {
		t.Fatalf("cancelled Infer published snapshot (epoch %d -> %d)", epochBefore, e)
	}
	// The same for a materialization that owes the chain 5e7 stored sweeps.
	ctx, cancel3 := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel3)
	kbLong = chainKB(t, 40, 0, deepdive.WithMaterialization(50_000_000, 0.01))
	start = time.Now()
	if _, err := kbLong.Materialize(ctx); err != context.Canceled {
		t.Fatalf("Materialize err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled Materialize took %v; cooperative check not reached", elapsed)
	}
	if st := kbLong.Snapshot().Stats(); st.Autopilot != nil || st.Materialized != (deepdive.Solved{}) {
		t.Fatalf("cancelled Materialize installed an engine: %+v", st)
	}

	// The KB stays usable: a fresh uncancelled run succeeds and publishes.
	if _, err := kb.Infer(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := kb.Snapshot(); got == before || got.Epoch() <= before.Epoch() {
		t.Fatal("post-cancellation Infer did not publish")
	}
	if _, err := kb.Apply(context.Background(), docUpdate(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := kb.Snapshot().Marginal("HasSpouse", deepdive.Tuple{"p0a", "p0b"}); !ok {
		t.Fatal("post-cancellation Apply did not serve the new pair")
	}
}

// TestSolvedStats: Learn, Infer and Materialize record how they came by
// their result, readable off the snapshot they publish. The spouse graph's
// components all enumerate — nothing is swept, every free variable is
// accounted for, and so is every evidence variable learning's gradient
// reads; the chain program's 40 coupled variables, one of them labelled, are
// past the bound under any budget, so they go to the runtime's chain —
// sequential, sharded and replica alike — while learning, inference and
// materialization still complete and serve a marginal for every node.
func TestSolvedStats(t *testing.T) {
	kb := spouseKB(t)
	st := kb.Snapshot().Stats()
	for pass, n := range map[string]deepdive.Solved{"Infer": st.Inferred, "Materialize": st.Materialized} {
		if n.Swept != 0 || n.Closed+n.Enumerated != st.QueryFacts || n.Largest < 1 {
			t.Errorf("spouse %s solved %+v of %d free variables", pass, n, st.QueryFacts)
		}
	}
	if n := st.Learned; n.Swept != 0 || n.Closed+n.Enumerated < st.Evidence || n.Largest < 1 {
		t.Errorf("spouse Learn solved %+v around %d evidence variables", n, st.Evidence)
	}
	if _, err := kb.Apply(context.Background(), docUpdate(0)); err != nil {
		t.Fatal(err)
	}
	if got := kb.Snapshot().Stats(); got.Inferred != st.Inferred || got.Materialized != st.Materialized || got.Learned != st.Learned {
		t.Errorf("an update rewrote the record: %+v, %+v, %+v", got.Inferred, got.Materialized, got.Learned)
	}

	for name, opt := range map[string]deepdive.Option{
		"sequential": deepdive.WithParallelism(1),
		"sharded":    deepdive.WithParallelism(4),
		"replicas":   deepdive.WithReplicas(2, 8),
	} {
		kb := chainKB(t, 40, 1, opt, deepdive.WithInference(30, 300), deepdive.WithMaterialization(200, 0.01))
		if st := kb.Snapshot().Stats(); st.Inferred != (deepdive.Solved{}) || st.Materialized != (deepdive.Solved{}) || st.Learned != (deepdive.Solved{}) {
			t.Fatalf("%s: a record before any pass: %+v", name, st)
		}
		for _, pass := range []func(context.Context) (time.Duration, error){kb.Learn, kb.Infer, kb.Materialize} {
			if _, err := pass(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		st := kb.Snapshot().Stats()
		want := deepdive.Solved{Swept: 39, Largest: 39}
		if st.Inferred != want || st.Materialized != want || st.Autopilot.StoreLen != 200 {
			t.Fatalf("%s: chain of 39 free nodes solved %+v / %+v with %d worlds stored, want %+v and 200", name, st.Inferred, st.Materialized, st.Autopilot.StoreLen, want)
		}
		if want := (deepdive.Solved{Swept: 40, Largest: 40}); st.Learned != want {
			t.Fatalf("%s: learning over the labelled chain of 40 solved %+v, want %+v", name, st.Learned, want)
		}
		// Positive couplings and a positive prior: every node the label
		// does not fix leans on.
		for i := 1; i < 40; i++ {
			if p, ok := kb.Snapshot().Marginal("On", deepdive.Tuple{fmt.Sprint("n", i)}); !ok || p < 0.5 || p > 0.99 {
				t.Fatalf("%s: On(n%d) = %v, %v", name, i, p, ok)
			}
		}
	}
}

// TestCoalesceUpdates pins the batching rules: disjoint updates merge
// into one batch; updates touching a common (relation, tuple) key split.
func TestCoalesceUpdates(t *testing.T) {
	var us []deepdive.Update
	for i := 0; i < 5; i++ {
		us = append(us, docUpdate(i))
	}
	us = append(us, deepdive.Update{RuleSource: "Sym: HasSpouse(m2, m1) :- HasSpouse(m1, m2) weight = 1.5."})
	batches := deepdive.CoalesceUpdates(us)
	if len(batches) != 1 {
		t.Fatalf("disjoint updates coalesced into %d batches, want 1", len(batches))
	}
	b := batches[0]
	if got := len(b.Inserts["Sentence"]); got != 5 {
		t.Fatalf("merged batch has %d sentences, want 5", got)
	}
	if b.RuleSource == "" {
		t.Fatal("merged batch lost the rule source")
	}

	// Delete-then-reinsert of the same tuple must stay ordered: two batches.
	conflict := []deepdive.Update{
		{Deletes: map[string][]deepdive.Tuple{"Sentence": {{"s1", "Alan and his wife Beth"}}}},
		{Inserts: map[string][]deepdive.Tuple{"Sentence": {{"s1", "Alan and his wife Beth"}}}},
	}
	if got := len(deepdive.CoalesceUpdates(conflict)); got != 2 {
		t.Fatalf("conflicting updates coalesced into %d batches, want 2", got)
	}
}

// TestQueueCoalescing submits N compatible updates to a paused queue,
// resumes, and requires exactly one batched apply whose marginals equal
// applying the merged update directly (deterministic: same seed, same
// grounding) and agree with sequential application within sampling
// tolerance.
func TestQueueCoalescing(t *testing.T) {
	const n = 4
	var us []deepdive.Update
	for i := 0; i < n; i++ {
		us = append(us, docUpdate(i))
	}
	// The sequential reference consumes stored proposals per update (the
	// batch consumes them once); size the store so neither path exhausts
	// it and falls back to variational mid-comparison.
	bigStore := deepdive.WithMaterialization(6000, 0.01)

	// Queue path: one coalesced batch.
	kbQ := spouseKB(t, bigStore)
	q := kbQ.Updates()
	q.Pause()
	var tickets []*deepdive.Ticket
	for _, u := range us {
		tickets = append(tickets, q.Submit(u))
	}
	if got := q.Pending(); got != n {
		t.Fatalf("pending = %d, want %d", got, n)
	}
	q.Resume()
	for i, tk := range tickets {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if res.Coalesced != n {
			t.Fatalf("ticket %d: coalesced = %d, want %d", i, res.Coalesced, n)
		}
	}
	if got := q.Batches(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	if got := q.Applied(); got != n {
		t.Fatalf("applied = %d, want %d", got, n)
	}

	// Direct merged apply on an identical KB must match exactly.
	kbM := spouseKB(t, bigStore)
	merged := deepdive.CoalesceUpdates(us)
	if len(merged) != 1 {
		t.Fatalf("merged into %d batches, want 1", len(merged))
	}
	if _, err := kbM.Apply(context.Background(), merged[0]); err != nil {
		t.Fatal(err)
	}

	// Sequential application on a third identical KB: same KB within
	// sampling tolerance.
	kbS := spouseKB(t, bigStore)
	for i, u := range us {
		if _, err := kbS.Apply(context.Background(), u); err != nil {
			t.Fatalf("sequential update %d: %v", i, err)
		}
	}

	snapQ, snapM, snapS := kbQ.Snapshot(), kbM.Snapshot(), kbS.Snapshot()
	cands := snapQ.Candidates("HasSpouse")
	if len(cands) != len(snapS.Candidates("HasSpouse")) {
		t.Fatalf("candidate counts diverge: queued %d vs sequential %d",
			len(cands), len(snapS.Candidates("HasSpouse")))
	}
	for _, c := range cands {
		pq, okQ := snapQ.Marginal("HasSpouse", c)
		pm, okM := snapM.Marginal("HasSpouse", c)
		ps, okS := snapS.Marginal("HasSpouse", c)
		if !okQ || !okM || !okS {
			t.Fatalf("candidate %v missing a marginal (q=%v m=%v s=%v)", c, okQ, okM, okS)
		}
		if pq != pm {
			t.Fatalf("candidate %v: queued %v != merged-direct %v (determinism broken)", c, pq, pm)
		}
		if math.Abs(pq-ps) > 0.15 {
			t.Fatalf("candidate %v: queued %v vs sequential %v", c, pq, ps)
		}
	}

	kbQ.Close()
	if tk := q.Submit(docUpdate(99)); tk != nil {
		if _, err := tk.Wait(context.Background()); err != deepdive.ErrQueueClosed {
			t.Fatalf("post-Close submit err = %v, want ErrQueueClosed", err)
		}
	}
}

// TestApplyModifiesPostMaterializationGroup is the regression test for a
// crash the serving benchmark exposed: deleting a document inserted by
// an earlier post-materialization update modifies a factor group that
// does not exist in the materialized Pr(0) graph, and the old-side
// acceptance scorer used to index past its group arrays. The old-graph
// change set must clamp to the materialization boundary instead.
func TestApplyModifiesPostMaterializationGroup(t *testing.T) {
	kb := spouseKB(t)
	ctx := context.Background()
	u := docUpdate(0)
	if _, err := kb.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	if _, ok := kb.Snapshot().Marginal("HasSpouse", deepdive.Tuple{"p0a", "p0b"}); !ok {
		t.Fatal("inserted pair not served")
	}
	if _, err := kb.Apply(ctx, deepdive.Update{Deletes: u.Inserts}); err != nil {
		t.Fatal(err)
	}
	if _, ok := kb.Snapshot().Marginal("HasSpouse", deepdive.Tuple{"p0a", "p0b"}); ok {
		t.Fatal("deleted pair still served")
	}
	// Re-insert: the tombstoned post-materialization group is modified
	// again (fresh grounding after the tombstone).
	if _, err := kb.Apply(ctx, docUpdate(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := kb.Snapshot().Marginal("HasSpouse", deepdive.Tuple{"p0a", "p0b"}); !ok {
		t.Fatal("re-inserted pair not served")
	}
}

// cancelAfterFirstErr is a context whose Err() passes the first check
// (Apply's entry gate) and reports Canceled from the second onward — a
// deterministic way to cancel an Apply exactly after its grounding
// committed, with no sleeps.
type cancelAfterFirstErr struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfterFirstErr) Err() error {
	if c.n.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestCancelledApplyCarriesChangeSet: an Apply cancelled after its
// grounding committed must not lose that delta — the next successful
// write scores the accumulated change set and publishes the accumulated
// state, so the earlier update's facts end up served.
func TestCancelledApplyCarriesChangeSet(t *testing.T) {
	kb := spouseKB(t)
	epochBefore := kb.Snapshot().Epoch()

	ctx := &cancelAfterFirstErr{Context: context.Background()}
	if _, err := kb.Apply(ctx, docUpdate(0)); err != context.Canceled {
		t.Fatalf("Apply err = %v, want context.Canceled", err)
	}
	if e := kb.Snapshot().Epoch(); e != epochBefore {
		t.Fatalf("cancelled Apply published (epoch %d -> %d)", epochBefore, e)
	}
	// The cancelled delta's pair is grounded but not yet served.
	if _, ok := kb.Snapshot().Marginal("HasSpouse", deepdive.Tuple{"p0a", "p0b"}); ok {
		t.Fatal("cancelled Apply's pair served before any publication")
	}

	// The next apply publishes BOTH documents' facts with high marginals
	// (the cancelled delta's groups are merged into the acceptance
	// scoring, not dropped).
	res, err := kb.Apply(context.Background(), docUpdate(1))
	if err != nil {
		t.Fatalf("follow-up Apply: %v", err)
	}
	if res.Epoch == 0 {
		t.Fatal("follow-up Apply did not publish")
	}
	snap := kb.Snapshot()
	for _, pair := range []deepdive.Tuple{{"p0a", "p0b"}, {"p1a", "p1b"}} {
		p, ok := snap.Marginal("HasSpouse", pair)
		if !ok {
			t.Fatalf("pair %v not served after recovery", pair)
		}
		if p < 0.5 {
			t.Fatalf("pair %v served at %v, want > 0.5 (wife feature)", pair, p)
		}
	}
}

// TestMaterializeKeepsCarriedDelta: a re-materialization — Materialize,
// or a checkpoint's — does not answer for an update cancelled after its
// grounding committed. It takes the cancelled delta into Pr(0) but
// publishes no marginal for it, so the next update must still re-estimate
// the whole graph: it serves the cancelled document's pairs at KB.Infer's
// marginals, not at the 0 of a vector they were never estimated into.
func TestMaterializeKeepsCarriedDelta(t *testing.T) {
	ctx := context.Background()
	for name, remat := range map[string]func(kb *deepdive.KB) error{
		"Materialize": func(kb *deepdive.KB) error { _, err := kb.Materialize(ctx); return err },
		"Checkpoint":  func(kb *deepdive.KB) error { return kb.Checkpoint(ctx) },
	} {
		kb := spouseKB(t, deepdive.WithDataDir(t.TempDir()))
		cctx, cancel := context.WithCancel(ctx)
		kb.HoldFinish(func(context.Context) { cancel() })
		if _, err := kb.Apply(cctx, docUpdate(1)); err != context.Canceled {
			t.Fatalf("%s: the held update returned %v, want context.Canceled", name, err)
		}
		kb.HoldFinish(nil)
		must(t, remat(kb))
		if _, err := kb.Apply(ctx, docUpdate(2)); err != nil {
			t.Fatal(err)
		}
		served := kb.Snapshot()
		if _, err := kb.Infer(ctx); err != nil {
			t.Fatal(err)
		}
		inferred := kb.Snapshot()
		for _, pair := range []deepdive.Tuple{{"p1a", "p1b"}, {"p1b", "p1a"}, {"p2a", "p2b"}} {
			got, ok := served.Marginal("HasSpouse", pair)
			want, _ := inferred.Marginal("HasSpouse", pair)
			if !ok || got != want {
				t.Errorf("%s: pair %v served at %v (served: %v), KB.Infer gives %v", name, pair, got, ok, want)
			}
		}
	}
}

// TestQueueSequentialConflicts checks the queue preserves sequential
// semantics across a conflicting stream: delete and re-insert of the same
// document land in different batches and the fact survives.
func TestQueueSequentialConflicts(t *testing.T) {
	kb := spouseKB(t)
	q := kb.Updates()
	q.Pause()
	del := deepdive.Update{Deletes: map[string][]deepdive.Tuple{
		"PersonMention": {{"c", "s2", "Carl"}},
	}}
	ins := deepdive.Update{Inserts: map[string][]deepdive.Tuple{
		"PersonMention": {{"c", "s2", "Carl"}},
	}}
	t1, t2 := q.Submit(del), q.Submit(ins)
	q.Resume()
	for i, tk := range []*deepdive.Ticket{t1, t2} {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if got := q.Batches(); got != 2 {
		t.Fatalf("conflicting stream batches = %d, want 2", got)
	}
	if p, ok := kb.Snapshot().Marginal("HasSpouse", deepdive.Tuple{"c", "d"}); !ok {
		t.Fatalf("pair (c,d) lost after delete+reinsert (p=%v ok=%v)", p, ok)
	}
	kb.Close()
}
