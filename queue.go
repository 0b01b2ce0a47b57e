package deepdive

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"deepdive/internal/serve"
)

// ErrQueueClosed is returned for updates submitted after Close.
var ErrQueueClosed = errors.New("deepdive: update queue closed")

// Ticket is the completion handle for one submitted update. Every update
// of a batch resolves to the same batch-level UpdateResult (whose
// Coalesced field reports the batch width) or, if the batched apply
// failed, the same error.
type Ticket struct {
	done chan struct{}
	res  *UpdateResult
	err  error
}

// Done returns a channel closed when the update's batch has been applied
// (or failed).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the update's batch is applied or ctx is cancelled.
func (t *Ticket) Wait(ctx context.Context) (*UpdateResult, error) {
	if ctx == nil {
		<-t.done
		return t.res, t.err
	}
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pendingUpdate struct {
	u   Update
	t   *Ticket
	ctx context.Context // submitter's context; nil = never cancelled
}

// UpdateQueue accepts a stream of Updates and applies them to the KB
// asynchronously, coalescing runs of compatible pending updates into one
// batched Apply — merged inserts/deletes per relation, concatenated rule
// sources — so a burst of small deltas pays one grounding + learning +
// inference + snapshot publication instead of N. One snapshot is
// published per batch, and each submitter's Ticket resolves to the
// batch's UpdateResult.
//
// Two pending updates coalesce unless they touch a common (relation,
// tuple) key: ApplyUpdate applies a batch's inserts before its deletes,
// so reordering is only safe when the touched tuple sets are disjoint
// (e.g. delete-then-reinsert of the same tuple must stay two batches).
// Rule sources always coalesce — grounding a new rule over the batch's
// fully-applied data equals grounding it first and delta-evaluating the
// rest, because derivation counts are additive.
//
// One worker applies the batches, one KB.Apply each, in submission order:
// the published epoch stream — and every marginal in it — is the one
// direct Apply calls of the same batches produce. Coalescing is the
// queue's only throughput mechanism.
//
// # Cancellation
//
// Cancelling a SubmitCtx context before the update's batch is taken
// retracts the update: its ticket resolves to the context's error and
// nothing is applied. Once taken into a coalesced batch, one member's
// cancellation cannot abort the batch — the other submitters share the
// apply — so the batch's context cancels only when every member's
// context is cancelled (updates submitted without a context make their
// batch non-cancellable). An aborted batch follows KB.Apply semantics:
// its grounded delta is kept and carried into the next batch's
// acceptance scoring, but no snapshot is published and every ticket in
// the batch resolves to the context error. Close drains gracefully;
// CloseNow additionally cancels the queue's lifecycle context, which
// aborts the in-flight batch at its next cooperative check so a stuck
// batch cannot block shutdown.
type UpdateQueue struct {
	kb *KB

	mu      sync.Mutex
	pending []pendingUpdate
	paused  bool
	closed  bool

	wake    chan struct{}
	stop    chan struct{}
	stopped chan struct{}

	// lifeCtx is the queue's lifecycle context, the parent of every batch
	// context: cancelled by CloseNow (and after a graceful Close's drain)
	// so no batch can outlive the queue.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	// slots is the backpressure semaphore (nil when unbounded): each
	// pending update holds one token from Submit until its batch is taken,
	// so a full channel blocks further submitters — see WithMaxPending.
	slots chan struct{}

	batches atomic.Uint64
	applied atomic.Uint64
	// batchNanos is an EWMA of recent batch wall times (ground through
	// publish), the basis of the serve tier's Retry-After hint under
	// queue saturation.
	batchNanos atomic.Uint64
}

func newUpdateQueue(kb *KB) *UpdateQueue {
	q := &UpdateQueue{
		kb:      kb,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	q.lifeCtx, q.lifeCancel = context.WithCancel(context.Background())
	if n := kb.opts.MaxPending; n > 0 {
		q.slots = make(chan struct{}, n)
	}
	go q.run()
	return q
}

// Submit enqueues one update and returns its completion ticket. Submit
// never blocks on inference, but with WithMaxPending it blocks while the
// queue is at its pending bound (use SubmitCtx to bound the wait); after
// Close the ticket resolves immediately to ErrQueueClosed.
func (q *UpdateQueue) Submit(u Update) *Ticket {
	t, _ := q.SubmitCtx(nil, u)
	return t
}

// SubmitCtx is Submit with a context that follows the update through the
// queue. It guards the backpressure wait — if the queue is at its
// MaxPending bound and ctx is cancelled before a slot frees up, SubmitCtx
// returns (nil, ctx.Err()) and the update is not enqueued — and it
// carries per-ticket cancellation semantics afterwards: cancelled while
// still pending, the update is retracted and its ticket resolves to
// ctx.Err(); cancelled after its batch was taken, the batch aborts only
// if every other member's context is also cancelled (see the
// UpdateQueue cancellation contract). A nil ctx waits indefinitely and
// never cancels.
func (q *UpdateQueue) SubmitCtx(ctx context.Context, u Update) (*Ticket, error) {
	t := &Ticket{done: make(chan struct{})}
	if q.slots != nil {
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case q.slots <- struct{}{}:
		case <-done:
			return nil, ctx.Err()
		case <-q.stop:
			t.err = ErrQueueClosed
			close(t.done)
			return t, nil
		}
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.releaseSlots(1)
		t.err = ErrQueueClosed
		close(t.done)
		return t, nil
	}
	q.pending = append(q.pending, pendingUpdate{u: u, t: t, ctx: ctx})
	q.mu.Unlock()
	q.kick()
	return t, nil
}

// releaseSlots returns n backpressure tokens (no-op when unbounded).
func (q *UpdateQueue) releaseSlots(n int) {
	if q.slots == nil {
		return
	}
	for i := 0; i < n; i++ {
		select {
		case <-q.slots:
		default:
			return
		}
	}
}

// Pause holds back batch processing (submissions still enqueue). Useful
// to accumulate a burst into one batch deliberately, or to quiesce the
// writer during maintenance.
func (q *UpdateQueue) Pause() {
	q.mu.Lock()
	q.paused = true
	q.mu.Unlock()
}

// Resume reverses Pause and kicks the worker.
func (q *UpdateQueue) Resume() {
	q.mu.Lock()
	q.paused = false
	q.mu.Unlock()
	q.kick()
}

// Close stops accepting new updates, drains everything already pending
// (even while paused), waits for the worker to exit, and
// cancels the queue's lifecycle context. Safe to call more than once.
func (q *UpdateQueue) Close() {
	q.mu.Lock()
	already := q.closed
	q.closed = true
	q.paused = false
	q.mu.Unlock()
	if !already {
		close(q.stop)
	}
	<-q.stopped
}

// CloseNow is Close without the graceful drain: it cancels the queue's
// lifecycle context first, so the in-flight batch aborts at its next
// cooperative check (its tickets resolve to the context error, its
// grounded delta — if its grounding already committed — is carried
// forward per KB.Apply semantics) and batches not yet taken resolve
// without being applied. Use it to shut down a queue whose current batch
// is stuck or no longer worth finishing.
func (q *UpdateQueue) CloseNow() {
	q.lifeCancel()
	q.Close()
}

// QueueStats is a point-in-time summary of the update queue, as reported
// by Stats; it is the wire type the /v1/stats endpoint serves.
type QueueStats = serve.QueueStats

// Stats reports the queue's counters in one consistent-enough read (the
// counters are sampled individually; only Pending/Closed share a lock).
func (q *UpdateQueue) Stats() QueueStats {
	q.mu.Lock()
	pending, closed := len(q.pending), q.closed
	q.mu.Unlock()
	return QueueStats{
		Pending:        pending,
		Capacity:       q.kb.opts.MaxPending,
		Batches:        q.batches.Load(),
		Applied:        q.applied.Load(),
		AvgBatchMillis: float64(q.batchNanos.Load()) / 1e6,
		Closed:         closed,
	}
}

// recordBatchDuration folds one successful batch's wall time into the
// EWMA behind QueueStats.AvgBatchMillis (α = 0.2; the first sample
// seeds it directly). Failed batches are excluded — refusals resolve in
// microseconds and would talk the Retry-After hint down exactly when
// the queue is in trouble.
func (q *UpdateQueue) recordBatchDuration(d time.Duration) {
	for {
		old := q.batchNanos.Load()
		next := uint64(d)
		if old != 0 {
			next = uint64(0.8*float64(old) + 0.2*float64(d))
		}
		if q.batchNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// Batches returns how many coalesced batches have been applied.
func (q *UpdateQueue) Batches() uint64 { return q.batches.Load() }

// Applied returns how many submitted updates have been resolved.
func (q *UpdateQueue) Applied() uint64 { return q.applied.Load() }

// Pending returns how many submitted updates await application.
func (q *UpdateQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

func (q *UpdateQueue) kick() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// run is the worker: it applies coalesced batches as they arrive, and on
// shutdown drains the pending queue before reporting stopped.
func (q *UpdateQueue) run() {
	defer func() {
		q.lifeCancel()
		close(q.stopped)
	}()
	for {
		select {
		case <-q.stop:
			q.drain()
			return
		case <-q.wake:
			q.drain()
		}
	}
}

// drain applies coalesced batches until nothing (processable) is left.
func (q *UpdateQueue) drain() {
	for {
		merged, tickets, ctxs := q.takeBatch()
		if len(tickets) == 0 {
			return
		}
		start := time.Now()
		bctx, release := q.batchCtx(ctxs)
		res, err := q.kb.Apply(bctx, merged)
		release()
		if err == nil {
			q.recordBatchDuration(time.Since(start))
		}
		q.resolveBatch(tickets, res, err)
	}
}

// resolveBatch counts one applied batch and resolves its tickets.
func (q *UpdateQueue) resolveBatch(tickets []*Ticket, res *UpdateResult, err error) {
	if res != nil {
		res.Coalesced = len(tickets)
	}
	q.batches.Add(1)
	q.applied.Add(uint64(len(tickets)))
	for _, t := range tickets {
		t.res, t.err = res, err
		close(t.done)
	}
}

// batchCtx derives the context one batched apply runs under. Every batch
// context is a child of the queue's lifecycle context; when all members
// carry a caller context, a watcher cancels the batch once every member
// is cancelled (one member submitted without a context pins the batch to
// the lifecycle context alone). The returned release func stops the
// watcher; the worker calls it when the batch resolves.
func (q *UpdateQueue) batchCtx(ctxs []context.Context) (context.Context, func()) {
	for _, c := range ctxs {
		if c == nil {
			return q.lifeCtx, func() {}
		}
	}
	merged, cancel := context.WithCancel(q.lifeCtx)
	stop := make(chan struct{})
	go func() {
		for _, c := range ctxs {
			select {
			case <-c.Done():
			case <-stop:
				return
			}
		}
		cancel()
	}()
	return merged, func() {
		close(stop)
		cancel()
	}
}

// takeBatch removes and merges the longest compatible prefix of the
// pending queue, first retracting pending updates whose submitter
// context is already cancelled (their tickets resolve to the context
// error without being applied). Returns no tickets when paused or empty;
// the third result carries each batched update's submitter context,
// aligned with the tickets.
func (q *UpdateQueue) takeBatch() (Update, []*Ticket, []context.Context) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.paused && !q.closed {
		return Update{}, nil, nil
	}
	kept := q.pending[:0]
	for _, p := range q.pending {
		if p.ctx != nil && p.ctx.Err() != nil {
			q.releaseSlots(1)
			q.applied.Add(1)
			p.t.err = p.ctx.Err()
			close(p.t.done)
			continue
		}
		kept = append(kept, p)
	}
	q.pending = kept
	if len(q.pending) == 0 {
		return Update{}, nil, nil
	}
	merged, n := mergePrefix(len(q.pending), func(i int) *Update { return &q.pending[i].u })
	tickets := make([]*Ticket, n)
	ctxs := make([]context.Context, n)
	for i, p := range q.pending[:n] {
		tickets[i], ctxs[i] = p.t, p.ctx
	}
	rest := q.pending[n:]
	q.pending = append(q.pending[:0:0], rest...)
	q.releaseSlots(n) // free backpressure tokens for the batch just taken
	return merged, tickets, ctxs
}

// CoalesceUpdates merges a sequence of updates into the minimal list of
// batches the queue would apply, preserving sequential semantics: a new
// batch starts whenever an update touches a (relation, tuple) key already
// touched by the accumulating batch. Exposed for testing and for callers
// batching offline.
func CoalesceUpdates(updates []Update) []Update {
	var out []Update
	for len(updates) > 0 {
		merged, n := mergePrefix(len(updates), func(i int) *Update { return &updates[i] })
		out = append(out, merged)
		updates = updates[n:]
	}
	return out
}

// mergePrefix merges the longest prefix of the n updates at(0), …, at(n-1)
// in which no update touches a (relation, tuple) key an earlier one touched,
// and reports its length: at least 1 when n > 0.
func mergePrefix(n int, at func(i int) *Update) (merged Update, taken int) {
	touched := map[string]bool{}
	for ; taken < n; taken++ {
		u := at(taken)
		if taken > 0 && updateConflicts(touched, u) {
			break
		}
		mergeUpdate(&merged, u)
		touchKeys(u, touched)
	}
	return merged, taken
}

// touchKey builds the conflict-set key of one tuple of one relation.
func touchKey(rel string, t Tuple) string { return rel + "\x00" + t.Key() }

// touchKeys adds every (relation, tuple) key the update touches.
func touchKeys(u *Update, out map[string]bool) {
	for rel, ts := range u.Inserts {
		for _, t := range ts {
			out[touchKey(rel, t)] = true
		}
	}
	for rel, ts := range u.Deletes {
		for _, t := range ts {
			out[touchKey(rel, t)] = true
		}
	}
}

// updateConflicts reports whether u touches any key in the batch's
// touched set.
func updateConflicts(touched map[string]bool, u *Update) bool {
	for rel, ts := range u.Inserts {
		for _, t := range ts {
			if touched[touchKey(rel, t)] {
				return true
			}
		}
	}
	for rel, ts := range u.Deletes {
		for _, t := range ts {
			if touched[touchKey(rel, t)] {
				return true
			}
		}
	}
	return false
}

// mergeUpdate folds u into dst: inserts/deletes append per relation,
// rule sources concatenate in submission order.
func mergeUpdate(dst *Update, u *Update) {
	if u.RuleSource != "" {
		if dst.RuleSource != "" {
			dst.RuleSource += "\n"
		}
		dst.RuleSource += u.RuleSource
	}
	if len(u.Inserts) > 0 && dst.Inserts == nil {
		dst.Inserts = map[string][]Tuple{}
	}
	for rel, ts := range u.Inserts {
		dst.Inserts[rel] = append(dst.Inserts[rel], ts...)
	}
	if len(u.Deletes) > 0 && dst.Deletes == nil {
		dst.Deletes = map[string][]Tuple{}
	}
	for rel, ts := range u.Deletes {
		dst.Deletes[rel] = append(dst.Deletes[rel], ts...)
	}
}
