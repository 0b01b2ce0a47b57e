package gibbs

import (
	"context"

	"deepdive/internal/factor"
)

// Chain is a Gibbs chain over a factor graph — the sequential Sampler, the
// sharded ParallelSampler or the replica ReplicaSampler, as a Runtime
// selects. Weight learning and incremental materialization are written
// against this interface so parallelism is a configuration knob, not a
// code path.
//
// The Ctx variants are the cancellation surface of the serving API: they
// check ctx between sweeps (the cooperative-cancellation granularity —
// a sweep is never interrupted mid-scan, so the chain's state stays a
// coherent world) and return whatever was accumulated so far. Callers
// that must distinguish a complete result from a cancelled one check
// ctx.Err() afterwards. A nil ctx means "never cancel".
type Chain interface {
	// Sweep performs one full scan over all free variables.
	Sweep()
	// Run performs n sweeps.
	Run(n int)
	// RunCtx performs up to n sweeps, checking ctx between sweeps, and
	// returns how many completed.
	RunCtx(ctx context.Context, n int) int
	// MarginalsCtx is Marginals with a cooperative cancellation check
	// between sweeps; on cancellation it returns the estimate over the
	// worlds observed so far (all-zero when cancelled before any).
	MarginalsCtx(ctx context.Context, burnin, keep int) []float64
	// CollectSamplesCtx is CollectSamples with a cooperative cancellation
	// check between sweeps; on cancellation the returned store holds the
	// worlds collected so far.
	CollectSamplesCtx(ctx context.Context, burnin, n int) *Store
	// RandomizeState assigns every free variable uniformly at random.
	RandomizeState()
	// Assign returns the chain's current world (read between sweeps only;
	// shared, not a copy).
	Assign() []bool
	// Marginals runs burnin then keep sweeps and returns empirical
	// per-variable P(v = true); evidence variables report their fixed value.
	Marginals(burnin, keep int) []float64
	// CollectSamples runs burnin sweeps then stores n worlds.
	CollectSamples(burnin, n int) *Store
	// StoreWorlds appends the current sweep's exact sample world(s) to st
	// — one world for the single-assignment chains, one per replica for
	// the replica engine (never a derived/consensus world, which would
	// bias the store). Call between sweeps only.
	StoreWorlds(st *Store)
	// CondProb returns P(v = true | rest) under the current world.
	CondProb(v factor.VarID) float64
	// WeightStats accumulates the current world's per-weight sufficient
	// statistic into out.
	WeightStats(out []float64)
	// NumFree returns the number of free (sampled) variables.
	NumFree() int
	// Graph returns the underlying factor graph.
	Graph() *factor.Graph
}

var (
	_ Chain = (*Sampler)(nil)
	_ Chain = (*ParallelSampler)(nil)
	_ Chain = (*ReplicaSampler)(nil)
)

// kernel is what a runtime contributes to the shared sweep loop: its
// sweep, and the exact worlds that sweep leaves.
type kernel interface {
	Sweep()
	// eachWorld calls f with every world the last sweep left — the
	// chain's assignment, or one per replica — shared, not copied. Call
	// between sweeps only.
	eachWorld(f func([]bool))
}

// driver is the sweep loop every runtime embeds: running, marginal
// estimation and sample collection are written once, over the runtime's
// kernel, so a runtime carries only what differs — its sweep and the
// worlds it leaves.
type driver struct {
	k    kernel
	g    *factor.Graph
	free []factor.VarID // non-evidence variables, scan order
}

// newDriver returns the loop over k's sweeps of g.
func newDriver(k kernel, g *factor.Graph) driver {
	return driver{k: k, g: g, free: freeVars(g)}
}

// freeVars lists g's non-evidence variables, ascending.
func freeVars(g *factor.Graph) []factor.VarID {
	var free []factor.VarID
	for v := 0; v < g.NumVars(); v++ {
		if !g.IsEvidence(factor.VarID(v)) {
			free = append(free, factor.VarID(v))
		}
	}
	return free
}

// canceled reports whether ctx is non-nil and already cancelled — the
// single cooperative check every sweep loop consults.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// NumFree returns the number of free (sampled) variables.
func (d *driver) NumFree() int { return len(d.free) }

// Graph returns the underlying factor graph.
func (d *driver) Graph() *factor.Graph { return d.g }

// Run performs n sweeps.
func (d *driver) Run(n int) { d.RunCtx(nil, n) }

// RunCtx performs up to n sweeps, checking ctx between sweeps, and
// returns how many completed. A sweep's fan-out (and any merge it
// triggers) finishes before the check, so cancellation never observes a
// half-swept world.
func (d *driver) RunCtx(ctx context.Context, n int) int {
	for i := 0; i < n; i++ {
		if canceled(ctx) {
			return i
		}
		d.k.Sweep()
	}
	return n
}

// Marginals runs burnin sweeps, then keep sweeps, and returns the
// empirical P(v = true) for every variable over every world those keep
// sweeps leave (keep×Replicas for the replica engine). Evidence variables
// report their fixed value.
func (d *driver) Marginals(burnin, keep int) []float64 {
	return d.MarginalsCtx(nil, burnin, keep)
}

// MarginalsCtx is Marginals with a cooperative cancellation check
// between sweeps.
func (d *driver) MarginalsCtx(ctx context.Context, burnin, keep int) []float64 {
	est := newEstimatorOver(d.g, d.free)
	d.RunCtx(ctx, burnin)
	for i := 0; i < keep && !canceled(ctx); i++ {
		d.k.Sweep()
		d.k.eachWorld(est.Observe)
	}
	return est.Means()
}

// StoreWorlds appends the worlds the last sweep left to st.
func (d *driver) StoreWorlds(st *Store) { d.k.eachWorld(st.Add) }

// CollectSamples runs burnin sweeps and then stores exactly n worlds,
// every world a sweep leaves in turn — the materialization loop of the
// sampling approach (Section 3.2.2).
func (d *driver) CollectSamples(burnin, n int) *Store {
	return d.CollectSamplesCtx(nil, burnin, n)
}

// CollectSamplesCtx is CollectSamples with a cooperative cancellation
// check between sweeps.
func (d *driver) CollectSamplesCtx(ctx context.Context, burnin, n int) *Store {
	st := NewStore(d.g.NumVars())
	add := func(w []bool) {
		if st.Len() < n {
			st.Add(w)
		}
	}
	d.RunCtx(ctx, burnin)
	for st.Len() < n && !canceled(ctx) {
		d.k.Sweep()
		d.k.eachWorld(add)
	}
	return st
}

// Runtime selects the sampling runtime by configuration: the replica
// engine when Replicas is non-zero, otherwise the sharded/sequential
// chain by worker count. It is the single knob every layer (learning,
// materialization, rerun inference) threads through. The three runtimes
// share one driver: a Runtime picks a kernel — how a sweep moves the world
// and which worlds it leaves — not another way to run, estimate or
// collect.
type Runtime struct {
	// Workers shards sweeps over one shared assignment (ParallelSampler):
	// <= 1 sequential, n > 1 that many shards, negative one per core.
	// Ignored when Replicas is non-zero.
	Workers int
	// Replicas selects the replica engine (ReplicaSampler): n >= 1 runs n
	// full per-worker assignment copies, negative one per core, 0 disables
	// replica mode.
	Replicas int
	// SyncEvery is the replica merge interval in sweeps; <= 0 selects
	// DefaultSyncEvery. Unused outside replica mode.
	SyncEvery int
}

// ReplicaMode reports whether the runtime selects the replica engine.
func (rt Runtime) ReplicaMode() bool { return rt.Replicas != 0 }

// NewChain builds the chain the runtime selects over g: the replica engine
// in replica mode, otherwise the sequential Sampler when Workers is 0 or 1
// and a ParallelSampler with that many shards (one per core when
// negative) beyond.
func (rt Runtime) NewChain(g *factor.Graph, seed int64) Chain {
	switch {
	case rt.ReplicaMode():
		return NewReplica(g, rt.Replicas, rt.SyncEvery, seed)
	case rt.Workers == 0 || rt.Workers == 1:
		return New(g, seed)
	default:
		return NewParallel(g, rt.Workers, seed) // negative resolves to GOMAXPROCS
	}
}
