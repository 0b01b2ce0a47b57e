package deepdive

import "context"

// HoldFinish makes every later finish stage wait for hold(ctx) to return
// before it starts, ctx being the update's context.
func (kb *KB) HoldFinish(hold func(ctx context.Context)) { kb.holdFinish = hold }

// CancelAtRefill returns a context derived from parent that reports itself
// cancelled from the moment a store refill starts: an update applied with
// it is cancelled inside its refill, after its inference. The refill runs
// on the goroutine that checks the context, so reading its launch count
// there needs no lock.
func (kb *KB) CancelAtRefill(parent context.Context) context.Context {
	kb.stateMu.Lock()
	defer kb.stateMu.Unlock()
	return refillCtx{parent, kb, kb.auto.rematSpawns}
}

type refillCtx struct {
	context.Context
	kb     *KB
	spawns int64
}

func (c refillCtx) Err() error {
	if c.kb.auto.rematSpawns > c.spawns {
		return context.Canceled
	}
	return c.Context.Err()
}

// RebuiltSnapshot is the differential tests' oracle: what the KB serves —
// the same marginal vector, the same epoch — over a skeleton rebuilt from
// the grounder's tables, sharing nothing with the served lineage.
func (kb *KB) RebuiltSnapshot() *Snapshot {
	kb.groundMu.Lock()
	defer kb.groundMu.Unlock()
	kb.seqDrain()
	kb.stateMu.Lock()
	defer kb.stateMu.Unlock()
	served := kb.snap.Load()
	s := &Snapshot{skeleton: *kb.buildSkeleton(kb.curGraph), epoch: served.epoch, marg: kb.marg}
	s.stats.Autopilot = served.stats.Autopilot
	return s
}
