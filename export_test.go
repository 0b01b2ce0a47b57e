package deepdive

import (
	"context"

	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
)

// HoldFinish makes every later finish stage wait for hold(ctx) to return
// before it starts, ctx being the update's context. hold runs under the
// writer lock, after the update's graph commit.
func (kb *KB) HoldFinish(hold func(ctx context.Context)) { kb.holdFinish = hold }

// Engine returns the live incremental-inference engine (nil before
// Materialize) and the options it was built with.
func (kb *KB) Engine() (*inc.Engine, inc.Options) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.engine, kb.engineOpts(kb.engineSeed)
}

// Pending returns the change set carried to the next update.
func (kb *KB) Pending() inc.ChangeSet {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.pending
}

// FaultHook is the crash tests' injector: see InstallFaultHook.
type FaultHook = faultHook

// Kill points passed to a FaultHook (see persist.go).
const (
	FaultWALAppend   = faultWALAppend
	FaultWALAppended = faultWALAppended
	FaultSnapWrite   = faultSnapWrite
	FaultSnapWritten = faultSnapWritten
)

// InstallFaultHook makes every later WAL append and checkpoint call h at
// their kill points; an error from h aborts the operation there, leaving
// the on-disk state a crash at that instant would leave.
func (kb *KB) InstallFaultHook(h FaultHook) { kb.faultHook = h }

// RebuildUpdates makes every later update rebuild the factor graph's flat
// pools in O(V+F) instead of splicing (ΔV, ΔF) into them through
// factor.Patch in O(|Δ|): the in-place patch path's oracle.
func (kb *KB) RebuildUpdates() {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	kb.grounder.SetInPlaceUpdates(false)
}

// CancelAtRefill returns a context derived from parent that reports itself
// cancelled from the moment a store refill starts: an update applied with
// it is cancelled inside its refill, after its inference. The refill runs
// on the goroutine that checks the context, so reading its launch count
// there needs no lock.
func (kb *KB) CancelAtRefill(parent context.Context) context.Context {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return refillCtx{parent, kb, kb.rematSpawns}
}

type refillCtx struct {
	context.Context
	kb     *KB
	spawns int64
}

func (c refillCtx) Err() error {
	if c.kb.rematSpawns > c.spawns {
		return context.Canceled
	}
	return c.Context.Err()
}

// RebuiltSnapshot is the differential tests' oracle: what the KB serves —
// the same marginal vector, the same epoch — over a skeleton derived from
// the empty one, sharing nothing with the served lineage.
func (kb *KB) RebuiltSnapshot() *Snapshot {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	served := kb.snap.Load()
	sk, _ := kb.nextSkeleton(nil, kb.curGraph, &ground.Delta{})
	s := &Snapshot{skeleton: *sk, epoch: served.epoch, marg: kb.marg}
	s.stats.Autopilot = served.stats.Autopilot
	return s
}

// Served returns the graph and the marginal vector the served state
// corresponds to. Callers must not mutate either.
func (kb *KB) Served() (*factor.Graph, []float64) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.curGraph, kb.marg
}
