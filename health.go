package deepdive

// KB health state machine and self-healing WAL repair.
//
// A durable KB has exactly one failure latch on its write path: a failed
// write-ahead append breaks the durable chain (walBroken), after which
// every update is refused until a Checkpoint writes a fresh snapshot and
// rotates to a complete segment. Before this file, that checkpoint was
// the operator's problem. Now the latch also drives an explicit health
// state machine —
//
//	Healthy ──(WAL append fails)──► DurabilityDegraded
//	DurabilityDegraded ──(repair checkpoint lands)──► Healthy
//	DurabilityDegraded ──(ReadOnlyAfter consecutive repair failures)──► ReadOnly
//	ReadOnly ──(repair checkpoint lands)──► Healthy
//
// — and a background repair goroutine that retries the repair checkpoint
// with capped, jittered exponential backoff until the chain is whole
// again. Reads never participate: the snapshot pointer keeps serving the
// last published state through every transition, which is the property
// the chaos harness probes continuously.
//
// DurabilityDegraded and ReadOnly differ only in what they promise
// callers: Degraded means "updates are refused right now, a repair is in
// flight, retry with backoff" (HTTP 503 + Retry-After at the serve
// tier); ReadOnly means repair has failed ReadOnlyAfter times in a row —
// the disk is probably genuinely gone and callers should stop retrying
// (still 503, but with the read_only error code and no Retry-After
// hint). The repair loop keeps trying in both states; ReadOnly is an
// advisory escalation, not a terminal latch.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"deepdive/internal/serve"
)

// HealthState is one state of the KB's degraded-mode state machine; its
// JSON form is its name ("healthy").
type HealthState = serve.HealthState

// The three health states; see serve.HealthState.
const (
	Healthy            = serve.Healthy
	DurabilityDegraded = serve.DurabilityDegraded
	ReadOnly           = serve.ReadOnly
)

// ErrReadOnly is reported by updates while the KB is in the ReadOnly
// health state (repair has failed Options.ReadOnlyAfter consecutive
// times). errors.Is(err, ErrDurabilitySuspended) also holds: ReadOnly is
// a refinement of the suspended-durability refusal, not a new class.
var ErrReadOnly = fmt.Errorf("%w; repair has failed repeatedly, KB is read-only", ErrDurabilitySuspended)

// HealthStats is a point-in-time report of the degraded-mode machinery,
// the one /v1/health serves.
type HealthStats = serve.HealthInfo

// Health reports the KB's health state and repair counters. Safe from
// any goroutine; never blocks on the writer lock.
func (kb *KB) Health() HealthStats {
	kb.repairMu.Lock()
	active := kb.repairActive
	kb.repairMu.Unlock()
	// A landed repair bumps autoRepairs, clears walBroken and only then
	// turns the state Healthy; reading in the opposite order means a
	// Healthy report never carries a broken chain or misses the repair
	// that healed it. The loop's goroutine outlives that repair by a few
	// instructions, so Repairing follows the chain, not the goroutine.
	state := HealthState(kb.health.Load())
	broken := kb.walBroken.Load()
	return HealthStats{
		State:          state,
		Durable:        kb.opts.DataDir != "",
		WALBroken:      broken,
		AutoRepair:     kb.opts.DataDir != "" && !kb.opts.Lesions.NoAutoRepair,
		Repairing:      active && broken,
		RepairAttempts: kb.repairAttempts.Load(),
		RepairFailures: kb.repairFailures.Load(),
		AutoRepairs:    kb.autoRepairs.Load(),
	}
}

// noteWALBroken latches the broken durable chain, transitions the health
// state, and launches the background repair loop. Called under mu from
// the failed append.
func (kb *KB) noteWALBroken() {
	kb.walBroken.Store(true)
	kb.health.CompareAndSwap(int32(Healthy), int32(DurabilityDegraded))
	kb.launchRepair()
}

// noteChainRepaired transitions back to Healthy after a checkpoint
// (manual or auto) re-established the durable chain.
func (kb *KB) noteChainRepaired() {
	kb.health.CompareAndSwap(int32(DurabilityDegraded), int32(Healthy))
	kb.health.CompareAndSwap(int32(ReadOnly), int32(Healthy))
}

// launchRepair starts the background repair goroutine if auto-repair is
// enabled and no loop is already running.
func (kb *KB) launchRepair() {
	if kb.opts.DataDir == "" || kb.opts.Lesions.NoAutoRepair {
		return
	}
	kb.repairMu.Lock()
	defer kb.repairMu.Unlock()
	if kb.repairClosed || kb.repairActive {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	kb.repairActive = true
	kb.repairCancel = cancel
	kb.repairWG.Add(1)
	go kb.repairLoop(ctx)
}

// repairLoop retries the repair checkpoint with capped, jittered
// exponential backoff until the chain is whole (or the KB closes). Each
// attempt is a full Checkpoint: it takes the writer lock,
// so an attempt naturally queues behind (never preempts) in-flight
// writes — contention is bounded
// because every update is refusing fast while the chain is broken.
func (kb *KB) repairLoop(ctx context.Context) {
	defer kb.repairWG.Done()
	defer func() {
		kb.repairMu.Lock()
		kb.repairActive = false
		kb.repairCancel = nil
		closed := kb.repairClosed
		kb.repairMu.Unlock()
		// Close the exit race: a new append failure between this loop's
		// final walBroken check and the repairActive reset above would have
		// seen repairActive==true and skipped its launch — relaunch for it.
		if !closed && kb.walBroken.Load() {
			kb.launchRepair()
		}
	}()
	backoff := kb.opts.RepairBackoff
	streak := 0
	for {
		// Full jitter over [backoff/2, backoff]: decorrelates repair storms
		// when many KBs share a recovering disk.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return
		}
		if !kb.walBroken.Load() {
			return // a manual Checkpoint repaired the chain first
		}
		kb.repairAttempts.Add(1)
		err := kb.checkpoint(ctx, true)
		if err == nil {
			if !kb.walBroken.Load() {
				return
			}
			// Broken again already (append failed right after the repair):
			// restart the schedule from the base backoff.
			backoff = kb.opts.RepairBackoff
			streak = 0
			continue
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			return
		}
		kb.repairFailures.Add(1)
		streak++
		if n := kb.opts.ReadOnlyAfter; n > 0 && streak >= n {
			kb.health.CompareAndSwap(int32(DurabilityDegraded), int32(ReadOnly))
		}
		backoff *= 2
		if max := kb.opts.RepairBackoffMax; backoff > max {
			backoff = max
		}
	}
}

// shutdownRepair cancels any in-flight repair loop and waits it out;
// no loop launches afterwards. Part of Close/CloseNow.
func (kb *KB) shutdownRepair() {
	kb.repairMu.Lock()
	kb.repairClosed = true
	cancel := kb.repairCancel
	kb.repairMu.Unlock()
	if cancel != nil {
		cancel()
	}
	kb.repairWG.Wait()
}
