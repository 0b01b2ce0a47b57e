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
// refills. Callers hold stateMu.
func (kb *KB) refill(ctx context.Context, g *factor.Graph) (bool, error) {
	if kb.opts.RematLowWater <= 0 || kb.opts.Lesions.StaticOptimizer ||
		kb.engine.Store().Remaining() >= kb.opts.RematLowWater {
		return false, nil
	}
	// Vary the seed per launch so a re-materialized Pr(0) is a fresh sample
	// set, not a replay of the previous one.
	seed := kb.opts.Seed + 1009 + kb.auto.rematSpawns*7919
	kb.auto.rematSpawns++
	eng, err := inc.NewEngineCtx(ctx, g, kb.engineOpts(seed))
	if err != nil {
		kb.auto.rematLost++
		return false, ctxErr(ctx)
	}
	kb.engine, kb.engineSeed = eng, seed
	kb.auto.remats++
	return true, nil
}

// autoCounters aggregates per-update optimizer outcomes and the refills
// (rematSpawns counts launches, which seed them). Guarded by KB.stateMu.
type autoCounters struct {
	sampling    uint64
	variational uint64
	rerun       uint64
	exact       uint64
	fallbacks   uint64
	hist        [10]uint64
	lastAccept  float64
	lastProbe   float64
	probeSkips  uint64
	remats      uint64
	rematLost   uint64
	rematSpawns int64
}

// recordAutoResult folds one update's inference outcome into the
// autopilot statistics. Callers hold stateMu.
func (kb *KB) recordAutoResult(ir *inc.Result) {
	switch ir.Strategy {
	case inc.StrategySampling:
		kb.auto.sampling++
	case inc.StrategyVariational:
		kb.auto.variational++
	case inc.StrategyExact:
		kb.auto.exact++
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
	// Rematerializations counts store refills that landed (see
	// Options.RematLowWater); RematPreempted counts refills lost to the
	// cancellation of the update that ran them.
	Rematerializations uint64
	RematPreempted     uint64
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
		ExactRuns:          kb.auto.exact,
		Fallbacks:          kb.auto.fallbacks,
		AcceptanceHist:     kb.auto.hist,
		LastAcceptance:     kb.auto.lastAccept,
		LastProbe:          kb.auto.lastProbe,
		ProbeSkips:         kb.auto.probeSkips,
		LowWater:           kb.opts.RematLowWater,
		Rematerializations: kb.auto.remats,
		RematPreempted:     kb.auto.rematLost,
	}
	if kb.engine != nil {
		st.StoreLen = kb.engine.Store().Len()
		st.StoreRemaining = kb.engine.Store().Remaining()
		if vm := kb.engine.Variational(); vm != nil {
			st.VariationalFactors = vm.NumFactors()
		}
	}
	return st
}
