package deepdive

import (
	"context"

	"deepdive/internal/factor"
	"deepdive/internal/inc"
)

// refill is the quality autopilot's re-materialization (the paper's §3.2
// "materialize samples when idle"), run in line by the finish stage that
// needs it. The sample store is a consuming cursor — a sampling run over an
// update's remainder (the dirty components past the enumeration bound; an
// update solved exactly reads no world) draws it down — and once it runs dry
// the engine falls back to variational inference for good. When an update's
// inference leaves fewer
// than RematLowWater worlds, refill builds a fresh engine from g, the graph
// and weights the update just finished on: its store full, its cumulative
// change set empty. It reports whether it installed one; the caller then
// publishes the fresh store's means in place of the update's marginals
// (independent exact draws on every enumerable component: from-scratch
// quality, which snaps any drift the approximate paths accumulated) and
// clears pending, which the new Pr(0) bakes in.
//
// The refill is a deterministic step of the update: its seed follows the
// persisted launch count, so WAL replay refills exactly where the live
// process did. A refill that fails installs nothing and counts in
// RematPreempted; a cancelled one returns ctx's error, so the update
// publishes nothing, like any other cancelled finish, and the next one
// refills. Callers hold mu.
func (kb *KB) refill(ctx context.Context, g *factor.Graph) (bool, error) {
	if _, left := kb.engine.StoreLevel(); kb.opts.RematLowWater <= 0 || kb.opts.Lesions.StaticOptimizer ||
		left >= kb.opts.RematLowWater {
		return false, nil
	}
	if err := kb.launch(ctx, g); err != nil {
		kb.auto.RematPreempted++
		return false, ctxErr(ctx)
	}
	kb.auto.Rematerializations++
	return true, nil
}

// launch materializes a fresh engine over g and installs it: a refill's
// and a checkpoint's re-materialization. The seed varies per launch, so a
// re-materialized Pr(0) is a fresh sample set, not a replay of the
// previous one, and follows the persisted launch count, so recovery and
// replay launch with the seeds the live process did. Callers hold mu.
func (kb *KB) launch(ctx context.Context, g *factor.Graph) error {
	seed := kb.opts.Seed + 1009 + kb.rematSpawns*7919
	kb.rematSpawns++
	eng, err := inc.NewEngineCtx(ctx, g, kb.engineOpts(seed))
	if err != nil {
		return err
	}
	kb.engine, kb.engineSeed = eng, seed
	return nil
}

// compactLocked is a checkpoint's compaction: it rebuilds the flat pools
// from the grounding tables and installs the rebuilt graph as the served
// one (group order and flat handles are stable across the rebuild, so
// change-set indexes stay valid), which recovery rebuilds from the restored
// grounder; then, on a materialized KB, it ends the materialization epoch
// by launching a fresh engine on that graph, and publishes. The served
// marginals stay, and so does the change set a cancelled update carried:
// its groups score no energy change against the new Pr(0), and the next
// update still answers for it over the whole graph. WAL replay runs it where
// the checkpoint did. Callers hold mu.
func (kb *KB) compactLocked(ctx context.Context) error {
	kb.grounder.MarkGraphDirty()
	var err error
	if kb.engine != nil {
		err = kb.launch(ctx, kb.grounder.Graph())
	}
	kb.publishLocked()
	return err
}

// recordAutoResult folds one update's inference outcome into the
// autopilot statistics. Callers hold mu.
func (kb *KB) recordAutoResult(ir *inc.Result) {
	switch ir.Strategy {
	case inc.StrategySampling:
		kb.auto.SamplingRuns++
	case inc.StrategyVariational:
		kb.auto.VariationalRuns++
	case inc.StrategyExact:
		kb.auto.ExactRuns++
	default:
		kb.auto.RerunRuns++
	}
	if ir.FellBack {
		kb.auto.Fallbacks++
	}
	kb.auto.LastAcceptance = ir.AcceptanceRate
	kb.auto.LastProbe = ir.Probed
	if ir.Probed >= 0 {
		b := int(ir.Probed * 10)
		if b > 9 {
			b = 9
		}
		kb.auto.AcceptanceHist[b]++
	}
}

// AutopilotStats reports the quality autopilot's state: how the optimizer
// has been deciding (strategy counts, the measured acceptance-rate
// histogram), the sample store's fill level against the low-water mark,
// and how often the store was refilled.
type AutopilotStats struct {
	// Strategy counts across updates since the KB opened. ExactRuns counts
	// the updates whose dirty components all enumerated (or that dirtied
	// nothing): they read no stored world and leave the others alone; the
	// rest count under the strategy their remainder ran.
	SamplingRuns    uint64
	VariationalRuns uint64
	RerunRuns       uint64
	ExactRuns       uint64
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
	// Store fill level: total stored worlds and how many remain
	// unconsumed, against the configured low-water mark. Reading them
	// draws nothing: until an update first reads the store (see
	// inc.NewEngine) both are WithMaterialization's sample count, the
	// worlds that read will store.
	StoreLen       int
	StoreRemaining int
	LowWater       int
	// VariationalFactors is the factor count of the materialized
	// variational approximation (the quantity Figure 6 plots against λ);
	// 0 under the NoVariational lesion, and 0 until an update first reads
	// the approximation, which fits it.
	VariationalFactors int
	// Rematerializations counts store refills that landed (see
	// Options.RematLowWater); RematPreempted counts refills lost to the
	// cancellation of the update that ran them.
	Rematerializations uint64
	RematPreempted     uint64
}

// Autopilot reports the live quality-autopilot state. Snapshots carry the
// state frozen at their publication via Stats().Autopilot.
func (kb *KB) Autopilot() AutopilotStats {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.autopilotLocked()
}

// autopilotLocked completes the KB's counters with the store's and the
// approximation's levels. Callers hold mu.
func (kb *KB) autopilotLocked() AutopilotStats {
	st := kb.auto
	st.LowWater = kb.opts.RematLowWater
	if kb.engine != nil {
		st.StoreLen, st.StoreRemaining = kb.engine.StoreLevel()
		if kb.engine.Drawn() {
			if vm := kb.engine.Variational(); vm != nil {
				st.VariationalFactors = vm.NumFactors()
			}
		}
	}
	return st
}
