package deepdive

import (
	"context"

	"deepdive/internal/factor"
	"deepdive/internal/inc"
)

// This file implements the quality autopilot's background
// re-materializer: the paper's idle-time materialization (§3.2) adapted
// to the KB's two-lock pipeline. The sample store is a consuming cursor —
// every sampling-strategy update draws it down — and once it runs dry the
// engine falls back to variational inference for good. Re-materializing
// resets that boundary: a fresh engine is built from the *current* graph
// and weights, its store full, its cumulative change set empty.
//
// Concurrency protocol. A materialization evaluates the graph a connected
// component at a time (inc.NewEngineCtx: exact worlds for what it can
// enumerate, a Gibbs chain for the rest) — milliseconds on a graph of small
// components, seconds when a large one must be swept — and
// must not hold the write locks, but factor.Patch is not safe against
// in-flight evaluation on any graph of the lineage, and learning mutates
// weights in place. So:
//
//   - The run is snapshotted under stateMu (graph pointer + generation
//     counter) and sampling proceeds off-lock on that graph.
//   - Every writer that mutates graph or weight state preempts first:
//     cancel the run's context, then wait on run.done. The goroutine
//     closes done the moment sampling is finished (cooperative
//     cancellation makes that prompt) and *before* it attempts any lock —
//     a preemptor already holding groundMu therefore never deadlocks
//     against it.
//   - The swap takes the full writer lock pair (groundMu → seqDrain →
//     stateMu, the lockExclusive discipline) and installs the fresh
//     engine only if the generation counter is unchanged — any write that
//     slipped in (bumping the generation) makes the materialization stale
//     and it is discarded.

// rematRun tracks one in-flight background re-materialization.
type rematRun struct {
	cancel context.CancelFunc
	// done is closed once the goroutine has finished every read of the
	// snapshot graph (successful or not) and before it attempts any lock.
	// Preemptors cancel and then block on done: when it is closed, no
	// re-materialization code is evaluating shared graph state.
	done chan struct{}
	// finished is closed when the goroutine has fully exited — swap
	// attempted (landed or discarded) and the run retired. The update
	// queue's cooperative slot waits on it; unlike done it covers the
	// swap itself, and it closes on every exit path, so the wait is
	// bounded even when the run is preempted.
	finished chan struct{}
}

// maybeRematerialize launches a background re-materialization when the
// store has drained below the configured low-water mark. Callers hold
// stateMu (it reads engine state and the current graph/generation).
func (kb *KB) maybeRematerialize() {
	if kb.replaying || kb.opts.RematLowWater <= 0 || kb.opts.Lesions.StaticOptimizer || kb.engine == nil || kb.curGraph == nil {
		return
	}
	if kb.engine.Store().Remaining() >= kb.opts.RematLowWater {
		return
	}
	kb.rematMu.Lock()
	defer kb.rematMu.Unlock()
	if kb.rematClosed || kb.rematRun != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &rematRun{cancel: cancel, done: make(chan struct{}), finished: make(chan struct{})}
	kb.rematRun = run
	// Vary the seed per launch so a re-materialized Pr(0) is a fresh
	// sample set, not a replay of the previous one.
	seed := kb.opts.Seed + 1009 + kb.rematSpawns*7919
	kb.rematSpawns++
	kb.rematWG.Add(1)
	go kb.rematerialize(ctx, run, kb.curGraph, kb.stateGen, seed)
}

// rematerialize is the background goroutine: materialize off-lock, then
// swap in under the full writer lock pair if nothing changed meanwhile.
func (kb *KB) rematerialize(ctx context.Context, run *rematRun, g *factor.Graph, gen uint64, seed int64) {
	defer kb.rematWG.Done()
	defer kb.clearRematRun(run)
	defer close(run.finished)

	eng, err := inc.NewEngineCtx(ctx, g, kb.engineOpts(seed))
	if err == nil && kb.opts.RematBudget > 0 && ctx.Err() == nil {
		// Idle-time extension: keep drawing worlds past the baseline count
		// for the configured budget (cancellable between batches).
		eng.MaterializeForBudgetCtx(ctx, kb.opts.RematBudget)
	}
	// All reads of g are complete. Release preemptors before taking any
	// lock: a writer holding groundMu may be blocked in preemptRemat
	// waiting for exactly this signal. A lost run is counted first, so the
	// writer that cancelled it finds it in RematPreempted when its own
	// update returns (an update is shorter than a goroutine switch now).
	lost := err != nil || ctx.Err() != nil
	if lost {
		kb.rematLost.Add(1)
	}
	close(run.done)

	if lost {
		if ctx.Err() != nil {
			kb.noteRematOutcome(false)
		}
		return
	}

	landed := false
	kb.groundMu.Lock()
	kb.seqDrain()
	kb.stateMu.Lock()
	if kb.stateGen == gen && ctx.Err() == nil {
		kb.stateGen++
		kb.engine = eng
		kb.engineSeed = seed
		// The fresh store is a sample of the current distribution —
		// independent exact draws on every enumerable component: its
		// means are from-scratch-quality marginals.
		// Publishing them snaps any drift the approximate paths
		// accumulated since the last materialization.
		kb.marg = eng.Store().Means()
		kb.pending = inc.ChangeSet{} // the new Pr(0) bakes in every grounded delta
		kb.remats.Add(1)
		kb.publishLocked()
		landed = true
	} else {
		kb.rematLost.Add(1)
	}
	kb.stateMu.Unlock()
	kb.groundMu.Unlock()
	kb.noteRematOutcome(landed)

	// A landed swap is a state change WAL replay cannot reproduce (its
	// timing against the update stream is not logged), so persist it:
	// write a fresh snapshot in the background. Failure is tolerable —
	// the durable chain stays valid at the pre-swap state and the next
	// checkpoint retries.
	if landed && kb.opts.DataDir != "" {
		kb.rematMu.Lock()
		spawn := !kb.rematClosed
		if spawn {
			// Safe: this goroutine's own WG slot is still held (its Done
			// is the last deferred call), so the counter cannot be zero.
			kb.rematWG.Add(1)
		}
		kb.rematMu.Unlock()
		if spawn {
			go func() {
				defer kb.rematWG.Done()
				_ = kb.Checkpoint(context.Background())
			}()
		}
	}
}

// noteRematOutcome maintains the preemption streak behind the
// cooperative queue slot: landed runs reset it, preempted or superseded
// runs extend it (hard failures leave it unchanged).
func (kb *KB) noteRematOutcome(landed bool) {
	kb.rematMu.Lock()
	if landed {
		kb.rematPreemptStreak = 0
	} else {
		kb.rematPreemptStreak++
	}
	kb.rematMu.Unlock()
}

// cooperativeRematSlot bounds re-materialization starvation: once
// RematForceAfter consecutive launches have been preempted by writes,
// the update queue calls this before taking its next batch and blocks
// until the in-flight (or a freshly launched) re-materialization
// finishes — one cooperative slot in which no new write can preempt it.
// The wait is bounded because rematRun.finished closes on every exit
// path, and the queue's lifecycle context aborts the hold on shutdown.
func (kb *KB) cooperativeRematSlot(ctx context.Context) {
	n := kb.opts.RematForceAfter
	if n <= 0 || kb.opts.RematLowWater <= 0 || kb.opts.Lesions.StaticOptimizer {
		return
	}
	kb.rematMu.Lock()
	streak := kb.rematPreemptStreak
	run := kb.rematRun
	kb.rematMu.Unlock()
	if streak < n {
		return
	}
	if run == nil {
		kb.stateMu.Lock()
		kb.maybeRematerialize()
		kb.stateMu.Unlock()
		kb.rematMu.Lock()
		run = kb.rematRun
		kb.rematMu.Unlock()
		if run == nil {
			return // store refilled through another path, or shutting down
		}
	}
	kb.rematForced.Add(1)
	select {
	case <-run.finished:
	case <-ctx.Done():
	}
}

// preemptRemat cancels any in-flight background re-materialization and
// waits until it is no longer reading shared graph state. Callers are
// writers about to mutate graph or weight state; they may hold groundMu
// (the re-materializer never holds a lock before closing run.done, so
// this cannot deadlock). The cancelled run discards its result: either
// its goroutine observes the cancellation before swapping, or the
// caller's generation bump invalidates it at the swap check.
func (kb *KB) preemptRemat() {
	kb.rematMu.Lock()
	run := kb.rematRun
	kb.rematMu.Unlock()
	if run == nil {
		return
	}
	run.cancel()
	<-run.done
	// Retire the cancelled run here rather than when its goroutine gets
	// round to it: the caller re-arms the trigger at the end of its own
	// update, and a run still registered then would swallow that launch.
	kb.clearRematRun(run)
}

// clearRematRun retires a finished run, re-arming maybeRematerialize.
func (kb *KB) clearRematRun(run *rematRun) {
	kb.rematMu.Lock()
	if kb.rematRun == run {
		kb.rematRun = nil
	}
	kb.rematMu.Unlock()
}

// shutdownRemat permanently disables background re-materialization,
// cancels any in-flight run, and waits for its goroutine to exit.
func (kb *KB) shutdownRemat() {
	kb.rematMu.Lock()
	kb.rematClosed = true
	run := kb.rematRun
	kb.rematMu.Unlock()
	if run != nil {
		run.cancel()
	}
	kb.rematWG.Wait()
}

// autoCounters aggregates per-update optimizer outcomes. Guarded by
// KB.stateMu.
type autoCounters struct {
	sampling    uint64
	variational uint64
	rerun       uint64
	fallbacks   uint64
	hist        [10]uint64
	lastAccept  float64
	lastProbe   float64
	probeSkips  uint64
}

// recordAutoResult folds one update's inference outcome into the
// autopilot statistics. Callers hold stateMu.
func (kb *KB) recordAutoResult(ir *inc.Result) {
	switch ir.Strategy {
	case inc.StrategySampling:
		kb.auto.sampling++
	case inc.StrategyVariational:
		kb.auto.variational++
	default:
		kb.auto.rerun++
	}
	if ir.FellBack {
		kb.auto.fallbacks++
	}
	if ir.ProbeSkipped {
		kb.auto.probeSkips++
	}
	kb.auto.lastAccept = ir.AcceptanceRate
	kb.auto.lastProbe = ir.Probed
	if ir.Probed >= 0 {
		b := int(ir.Probed * 10)
		if b > 9 {
			b = 9
		}
		kb.auto.hist[b]++
	}
}

// AutopilotStats reports the quality autopilot's state: how the optimizer
// has been deciding (strategy counts, the measured acceptance-rate
// histogram), the sample store's fill level against the low-water mark,
// and the background re-materializer's activity.
type AutopilotStats struct {
	// Strategy counts across updates since the KB opened.
	SamplingRuns    uint64
	VariationalRuns uint64
	RerunRuns       uint64
	// Fallbacks counts sampling runs that exhausted the store mid-update
	// and finished variationally (rule 4).
	Fallbacks uint64
	// AcceptanceHist buckets the measured acceptance-rate probes in
	// tenths: bucket i counts probes in [i/10, (i+1)/10).
	AcceptanceHist [10]uint64
	// LastAcceptance is the acceptance rate of the most recent update;
	// LastProbe its pre-inference probe (-1 when the choice was unprobed).
	LastAcceptance float64
	LastProbe      float64
	// ProbeSkips counts strategy choices decided from the previous
	// sampling run's observed acceptance rate — a decisive prior — with
	// no probe measured at all (these do not enter AcceptanceHist).
	ProbeSkips uint64
	// Store fill level: total stored worlds and how many remain
	// unconsumed, against the configured low-water mark.
	StoreLen       int
	StoreRemaining int
	LowWater       int
	// VariationalFactors is the factor count of the materialized
	// variational approximation (the quantity Figure 6 plots against λ);
	// 0 under the NoVariational lesion.
	VariationalFactors int
	// Rematerializations counts background engine swaps that landed;
	// RematPreempted counts launches that were cancelled or superseded by
	// a write before swapping. Rematerializing reports an in-flight run.
	Rematerializations uint64
	RematPreempted     uint64
	Rematerializing    bool
	// RematForced counts cooperative slots the update queue held open for
	// a starving re-materialization (see Options.RematForceAfter).
	RematForced uint64
}

// Autopilot reports the live quality-autopilot state. Snapshots carry the
// state frozen at their publication via Stats().Autopilot.
func (kb *KB) Autopilot() AutopilotStats {
	kb.stateMu.Lock()
	defer kb.stateMu.Unlock()
	return kb.autopilotLocked()
}

// autopilotLocked assembles AutopilotStats. Callers hold stateMu.
func (kb *KB) autopilotLocked() AutopilotStats {
	st := AutopilotStats{
		SamplingRuns:       kb.auto.sampling,
		VariationalRuns:    kb.auto.variational,
		RerunRuns:          kb.auto.rerun,
		Fallbacks:          kb.auto.fallbacks,
		AcceptanceHist:     kb.auto.hist,
		LastAcceptance:     kb.auto.lastAccept,
		LastProbe:          kb.auto.lastProbe,
		ProbeSkips:         kb.auto.probeSkips,
		LowWater:           kb.opts.RematLowWater,
		Rematerializations: kb.remats.Load(),
		RematPreempted:     kb.rematLost.Load(),
		RematForced:        kb.rematForced.Load(),
	}
	if kb.engine != nil {
		st.StoreLen = kb.engine.Store().Len()
		st.StoreRemaining = kb.engine.Store().Remaining()
		if vm := kb.engine.Variational(); vm != nil {
			st.VariationalFactors = vm.NumFactors()
		}
	}
	kb.rematMu.Lock()
	st.Rematerializing = kb.rematRun != nil
	kb.rematMu.Unlock()
	return st
}
