package inc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// canceled reports whether ctx is non-nil and already cancelled — the
// cooperative check the incremental-inference loops consult between
// proposals/sweeps.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// Strategy identifies a materialization/inference strategy.
type Strategy uint8

const (
	// StrategySampling is the tuple-bundle + Metropolis-Hastings approach.
	StrategySampling Strategy = iota
	// StrategyVariational is the log-det-relaxation approximate graph.
	StrategyVariational
	// StrategyRerun runs Gibbs from scratch (the baseline, not chosen by
	// the optimizer; used by lesion configurations).
	StrategyRerun
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategySampling:
		return "sampling"
	case StrategyVariational:
		return "variational"
	case StrategyRerun:
		return "rerun"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Options configures an Engine.
type Options struct {
	// MaterializationSamples is how many worlds to store (default 1000).
	// The paper materializes "as many samples as possible when idle or
	// within a user-specified time interval"; see MaterializeForBudget.
	MaterializationSamples int
	// Burnin sweeps before materialization sampling (default 50).
	Burnin int
	// KeepSamples is the number of inference worlds per update (default 500).
	KeepSamples int
	// Lambda is the variational regularization parameter (default 0.01).
	Lambda float64
	// MaxDenseComponent caps the dense log-det solve (default 300).
	MaxDenseComponent int
	// Runtime selects the Gibbs chain for materialization and rerun
	// fallbacks (sequential, sharded or replica); its Workers also shards
	// the sampling runner's acceptance scoring.
	Runtime gibbs.Runtime
	Seed    int64

	// MeasuredOptimizer drives the sampling-vs-variational choice from a
	// measured acceptance-rate probe over the stored samples (the §3.2
	// optimizer) instead of the purely rule-based §3.3 decision: sampling
	// when the measured rate is ≥ AcceptHigh, variational when it is
	// < AcceptLow, with the static rules as tie-breakers in between.
	// Off by default — ChooseStrategy keeps the static behavior.
	MeasuredOptimizer bool
	// ProbeSamples is how many stored (unconsumed) samples a measured
	// probe scores (default 24). Probing never consumes the store.
	ProbeSamples int
	// AcceptHigh is the normalized measured acceptance score
	// (NormalizeAcceptance) at or above which sampling is chosen outright
	// (default 0.2): stored proposals are still being adopted often
	// enough to converge within the sample budget.
	AcceptHigh float64
	// AcceptLow is the normalized measured acceptance score below which
	// the variational path is chosen outright (default 0.02): nearly
	// every proposal would be rejected, so replaying the store would burn
	// it without mixing.
	AcceptLow float64

	// CumulativeChanges makes the engine accumulate every change set it
	// infers over since materialization, scoring each update against the
	// union. The target distribution always differs from the
	// materialized Pr(0) by *all* deltas since materialization, not just
	// the latest one — without accumulation the variational inference
	// graph encodes only the current update's groups and facts touched by
	// earlier post-materialization updates drift toward 0.5. Off by
	// default for compatibility with per-update callers that manage their
	// own accumulation.
	CumulativeChanges bool

	// Lesion switches (Section 4.3): disable one side, or ignore workload
	// information (NoWorkloadInfo: always try sampling first, regardless
	// of the update's nature).
	DisableSampling    bool
	DisableVariational bool
	IgnoreWorkload     bool
}

func (o Options) fill() Options {
	if o.MaterializationSamples <= 0 {
		o.MaterializationSamples = 1000
	}
	if o.Burnin <= 0 {
		o.Burnin = 50
	}
	if o.KeepSamples <= 0 {
		o.KeepSamples = 500
	}
	if o.Lambda <= 0 {
		o.Lambda = 0.01
	}
	if o.MaxDenseComponent <= 0 {
		o.MaxDenseComponent = 300
	}
	if o.ProbeSamples <= 0 {
		o.ProbeSamples = 24
	}
	if o.AcceptHigh <= 0 {
		o.AcceptHigh = 0.2
	}
	if o.AcceptLow <= 0 {
		o.AcceptLow = 0.02
	}
	return o
}

// Result reports one incremental inference run.
type Result struct {
	// Marginals are indexed by variable id after a whole-graph run, by
	// position in the (sorted) scope after a scoped one.
	Marginals      []float64
	Strategy       Strategy
	FellBack       bool // sampling exhausted; variational finished the job
	AcceptanceRate float64
	SamplesUsed    int
	Elapsed        time.Duration
	// Probed is the measured acceptance-rate estimate the optimizer based
	// its strategy choice on, or -1 when the choice was made without
	// probing (static rules, empty change set, or an upfront store-level
	// decision).
	Probed float64
	// ProbeReused reports that the measured verdict was served from the
	// engine's memo instead of re-scoring stored samples: the probe's
	// inputs (store position, accumulated change set, graph shape) were
	// identical to the previous probe's, which happens on every member
	// of a coalesced batch after the first once cumulative change sets
	// stabilize.
	ProbeReused bool
	// ProbeSkipped reports that the measured probe was skipped because
	// the acceptance rate observed by the previous actual sampling run
	// was decisive on its own (see the acceptance prior in
	// ChooseStrategyMeasured). Probed is -1 on such runs.
	ProbeSkipped bool
	// Solved counts the variables a variational or rerun pass (chosen or
	// fallen back to) solved in closed form, by enumeration and by sweeping;
	// zero after a sampling pass.
	Solved Solved
}

// Engine owns the materialization of the original distribution Pr(0) and
// answers updated-distribution queries. Following Section 3.3, it
// materializes *both* the sampling and the variational form ("we propose
// to materialize the factor graph using both the sampling approach and
// the variational approach, and defer the decision to the inference
// phase").
type Engine struct {
	opts  Options
	old   *factor.Graph
	store *gibbs.Store
	vm    *Variational
	// worlds draws Pr(0)'s samples; nil on a restored engine.
	worlds *worlds

	// accum is the union of every change set noted since materialization
	// (Options.CumulativeChanges): the updated distribution differs from
	// Pr(0) by all of them, so every inference pass scores the union.
	accum ChangeSet
	// inOld/inNew mark accum's group membership by group index, so noting
	// an update costs O(|update|), not O(|accum|).
	inOld, inNew []bool

	// Probe-verdict memo (see ChooseStrategyMeasured): the last measured
	// (strategy, probe) pair and the fingerprint of the inputs it was
	// measured under. Weight drift between applies with an unchanged
	// change set is deliberately tolerated — that small staleness is the
	// amortization — while anything that moves the store cursor, the
	// accumulated change set, or the graph shape forces a re-probe.
	probeKey   uint64
	probeStrat Strategy
	probeVal   float64
	probeValid bool
	probeHit   bool // last ChooseStrategyMeasured call reused the memo

	// Acceptance prior: the normalized acceptance score the previous
	// *actual* sampling run observed over its full replay — a far larger
	// sample than any probe. When the prior is decisive by a wide margin
	// (see ChooseStrategyMeasured) the probe is skipped outright. The
	// prior is one-shot: consumed by the decision it informs and
	// re-validated only by the next sampling run, so a variational
	// stretch (which observes no acceptance) can never coast on a stale
	// prior indefinitely.
	priorAccept float64
	priorValid  bool
	probeSkip   bool // last ChooseStrategyMeasured call decided from the prior

	matElapsed time.Duration
}

// NewEngine materializes g under both strategies. The stored worlds are
// exact, independent draws from Pr(0) wherever the graph's components can be
// enumerated under the budget of Burnin+MaterializationSamples sweeps (see
// solveComponents) — the independent proposals the acceptance test of
// Section 3.2.2 assumes: no burn-in, no correlation between consecutive
// worlds. Only components past that bound are sampled, one world a sweep
// after Burnin sweeps, on the chain Options.Runtime selects.
func NewEngine(g *factor.Graph, opts Options) (*Engine, error) {
	return NewEngineCtx(nil, g, opts)
}

// NewEngineCtx is NewEngine with a cooperative cancellation check between
// components, inside enumerations, between sweeps and while the worlds are
// drawn. A cancelled materialization returns ctx's error and no engine —
// materialization is all-or-nothing, so a serving layer never installs a
// partially materialized Pr(0).
func NewEngineCtx(ctx context.Context, g *factor.Graph, opts Options) (*Engine, error) {
	o := opts.fill()
	e := &Engine{opts: o, old: g, store: gibbs.NewStore(g.NumVars())}
	start := time.Now()
	e.worlds = newWorlds(ctx, g, o, o.MaterializationSamples, o.Seed)
	if e.worlds == nil || !e.worlds.draw(ctx, e.store, o.MaterializationSamples) {
		return nil, ctx.Err()
	}
	if !o.DisableVariational {
		vm, err := MaterializeVariationalCtx(ctx, g, e.store, VariationalOptions{
			Lambda:            o.Lambda,
			MaxDenseComponent: o.MaxDenseComponent,
		})
		if err != nil {
			return nil, err
		}
		e.vm = vm
	}
	e.matElapsed = time.Since(start)
	return e, nil
}

// MaterializeForBudget keeps drawing samples until the wall-clock budget
// is spent (the paper's Figure 15 protocol, scaled down from 8 hours) and
// returns how many samples are now stored. Worlds arrive topUpWorlds at a
// time, continuing the stream NewEngine began. A restored engine, which
// keeps no evaluation to draw from, stores nothing more.
func (e *Engine) MaterializeForBudget(budget time.Duration) int {
	deadline := time.Now().Add(budget)
	for e.worlds != nil && time.Now().Before(deadline) {
		e.worlds.draw(nil, e.store, topUpWorlds)
	}
	return e.store.Len()
}

// Solved reports how the materialization came by its worlds: the variables
// drawn exactly (Closed, Enumerated) and those swept by the chain. Zero on a
// restored engine, which materialized nothing.
func (e *Engine) Solved() Solved {
	if e.worlds == nil {
		return Solved{}
	}
	return e.worlds.solved
}

// MaterializationTime returns the time spent in NewEngine.
func (e *Engine) MaterializationTime() time.Duration { return e.matElapsed }

// Store exposes the sample store (for statistics).
func (e *Engine) Store() *gibbs.Store { return e.store }

// OldGraph returns the materialized Pr(0) graph.
func (e *Engine) OldGraph() *factor.Graph { return e.old }

// Variational exposes the variational materialization (nil when disabled).
func (e *Engine) Variational() *Variational { return e.vm }

// ChooseStrategy applies the rule-based optimizer of Section 3.3:
//
//   - no structure change              → sampling (rule 1)
//   - evidence modified                → variational (rule 2)
//   - new features introduced          → sampling (rule 3)
//   - samples exhausted (at run time)  → variational (rule 4, in inferAs)
//
// Lesion switches override the choice.
func (e *Engine) ChooseStrategy(cs ChangeSet) Strategy {
	switch {
	case e.opts.DisableSampling:
		return StrategyVariational
	case e.opts.DisableVariational:
		return StrategySampling
	case e.opts.IgnoreWorkload:
		return StrategySampling // always try sampling first, fall back on exhaustion
	case !cs.StructureChanged() && len(cs.EvidenceChanged) == 0:
		return StrategySampling
	case len(cs.EvidenceChanged) > 0:
		return StrategyVariational
	default:
		return StrategySampling
	}
}

// ChooseStrategyMeasured is the §3.2 measured optimizer: instead of
// deciding from the update's *shape* alone (the §3.3 rules), it estimates
// the Metropolis-Hastings acceptance rate the stored samples would
// achieve against the updated distribution (EstimateAcceptanceRate — a
// non-consuming peek over the unconsumed region) and chooses:
//
//   - probe ≥ AcceptHigh → sampling: stored proposals still mix.
//   - probe <  AcceptLow → variational: proposals would be rejected
//     wholesale; replaying the store burns it without converging.
//   - in between → the §3.3 static rules tie-break.
//
// The raw rate is rescaled by NormalizeAcceptance before thresholding —
// a short probe chain accepts every new-record score no matter how much
// the distribution changed, so the raw rate has a floor of ≈ H(n)/n that
// would keep AcceptLow unreachable.
//
// The probe is skipped (returning -1) when measurement cannot inform the
// choice: MeasuredOptimizer off, a lesion forcing one side, or the
// NoWorkloadInfo lesion (a probe of the change set is workload
// information) — static rules decide; an empty change set (every proposal
// accepts — the A1 case); an evidence change (forced evidence values hide
// the shift from group-energy scoring, so rule 2 decides); or too few
// unconsumed samples to finish a sampling pass anyway (rule 4 applied
// upfront instead of after burning what is left).
func (e *Engine) ChooseStrategyMeasured(newG *factor.Graph, cs ChangeSet) (Strategy, float64) {
	e.probeHit = false
	e.probeSkip = false
	if !e.opts.MeasuredOptimizer || e.opts.DisableSampling || e.opts.DisableVariational || e.opts.IgnoreWorkload {
		return e.ChooseStrategy(cs), -1
	}
	if cs.Empty() {
		return StrategySampling, -1
	}
	if len(cs.EvidenceChanged) > 0 {
		return e.ChooseStrategy(cs), -1
	}
	if e.vm != nil && e.store.Remaining() < e.opts.KeepSamples {
		return StrategyVariational, -1
	}
	// Probe amortization: scoring stored samples against the updated
	// distribution costs a full EnergyOfGroups pass per probe sample, and
	// a coalesced batch re-asks the same question per member once the
	// cumulative change set has absorbed the batch's groups. Reuse the
	// last verdict while its inputs are unchanged; a sampling run (cursor
	// moves), a structural delta (change set grows), or a re-shaped graph
	// invalidates the key. Weight-only drift under an identical change
	// set reuses the verdict — the documented staleness this trades for
	// not re-probing every batch member.
	key := e.probeFingerprint(newG, cs)
	if e.probeValid && key == e.probeKey {
		e.probeHit = true
		return e.probeStrat, e.probeVal
	}
	// Acceptance-prior short-circuit: the previous sampling run scored
	// every proposal it replayed against the then-current distribution —
	// a measurement over KeepSamples proposals, versus the probe's
	// ProbeSamples. When that observation is decisive by a 2x margin
	// (the distribution has not shifted enough between two adjacent
	// updates to cross half an order of magnitude), re-measuring adds
	// nothing: skip the probe and spend the EnergyOfGroups pass on the
	// inference itself. The margins are deliberately asymmetric-safe —
	// an indecisive prior falls through to a normal probe, and the prior
	// is consumed either way it decides, so the next choice after a
	// skip is measured afresh unless a new sampling run re-validated it.
	if e.priorValid {
		switch {
		case e.priorAccept >= 2*e.opts.AcceptHigh:
			e.priorValid = false
			e.probeSkip = true
			return StrategySampling, -1
		case e.vm != nil && e.priorAccept < e.opts.AcceptLow/2:
			e.priorValid = false
			e.probeSkip = true
			return StrategyVariational, -1
		}
	}
	n := e.opts.ProbeSamples
	if r := e.store.Remaining(); n > r {
		n = r
	}
	probe := NormalizeAcceptance(
		EstimateAcceptanceRate(e.old, newG, e.store, cs, n, e.opts.Seed+43), n)
	var strat Strategy
	switch {
	case probe >= e.opts.AcceptHigh:
		strat = StrategySampling
	case e.vm != nil && probe < e.opts.AcceptLow:
		strat = StrategyVariational
	default:
		strat = e.ChooseStrategy(cs)
	}
	e.probeKey, e.probeStrat, e.probeVal, e.probeValid = key, strat, probe, true
	return strat, probe
}

// probeFingerprint hashes (FNV-1a) everything a probe's outcome depends
// on apart from the weight values: the store's consumption position and
// size, the updated graph's shape, and the change-set membership.
func (e *Engine) probeFingerprint(newG *factor.Graph, cs ChangeSet) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(e.store.Len()))
	mix(uint64(e.store.Remaining()))
	mix(uint64(newG.NumVars()))
	mix(uint64(newG.NumGroups()))
	mix(uint64(newG.NumGroundings()))
	mix(uint64(len(cs.ChangedOld)))
	for _, gi := range cs.ChangedOld {
		mix(uint64(uint32(gi)))
	}
	mix(uint64(len(cs.ChangedNew)))
	for _, gi := range cs.ChangedNew {
		mix(uint64(uint32(gi)))
	}
	if cs.NewFeatures {
		mix(1)
	}
	return h
}

// ProbeSkipped reports whether the most recent strategy choice was
// decided from the acceptance prior without probing.
func (e *Engine) ProbeSkipped() bool { return e.probeSkip }

// notePrior records the acceptance rate an actual sampling pass
// observed over proposed replayed proposals, normalized the same way
// probe scores are (NormalizeAcceptance) so it is comparable against
// the AcceptHigh/AcceptLow thresholds.
func (e *Engine) notePrior(rate float64, proposed int) {
	if proposed <= 0 {
		return
	}
	e.priorAccept = NormalizeAcceptance(rate, proposed)
	e.priorValid = true
}

// ResetProbeCache drops the memoized probe verdict and the acceptance
// prior. The serving layer calls it at every checkpoint so a process
// recovered from that checkpoint (whose restored engine starts with a
// cold memo and no prior) makes the same probe decisions the original
// process made after it.
func (e *Engine) ResetProbeCache() {
	e.probeValid = false
	e.probeHit = false
	e.priorValid = false
	e.probeSkip = false
}

// Accumulated returns the change sets noted since materialization (the
// union AutoInferCtx scores against). Callers must not mutate it.
func (e *Engine) Accumulated() ChangeSet { return e.accum }

// note folds cs into the accumulated change set, duplicate-free and in
// first-noted order, as ChangeSet.Merge would.
func (e *Engine) note(cs ChangeSet) {
	unseen := func(dst, src []int32, in *[]bool) []int32 {
		for _, gi := range src {
			if int(gi) >= len(*in) {
				*in = append(*in, make([]bool, int(gi)+1-len(*in))...)
			}
			if !(*in)[gi] {
				(*in)[gi] = true
				dst = append(dst, gi)
			}
		}
		return dst
	}
	e.accum.ChangedOld = unseen(e.accum.ChangedOld, cs.ChangedOld, &e.inOld)
	e.accum.ChangedNew = unseen(e.accum.ChangedNew, cs.ChangedNew, &e.inNew)
	e.accum.EvidenceChanged = mergeVarIDs(e.accum.EvidenceChanged, cs.EvidenceChanged)
	e.accum.NewFeatures = e.accum.NewFeatures || cs.NewFeatures
}

// Scope grows the inference dirty set of an update over newG: the
// connected components — over the free-variable adjacency and the
// variational approximation's edges — of the free variables among touched
// (the variables of every group whose energy the update changed) and of
// the variables whose evidence it changed. Every variable outside it has
// the inference graph it had before the update, so its published marginal
// is still a draw from the right distribution.
func (e *Engine) Scope(newG *factor.Graph, touched, evidenceChanged []factor.VarID) *factor.Reach {
	r := newG.NewReach(true)
	for _, v := range evidenceChanged {
		r.Grow(v, false)
	}
	for _, v := range touched {
		if !newG.IsEvidence(v) {
			r.Grow(v, false)
		}
	}
	if e.vm == nil {
		return r
	}
	// The approximation's edges follow the materialized graph's adjacency,
	// which compaction may since have dropped: follow them from every free
	// member explicitly (one flat pass when nothing is missing, the rule).
	for grew := true; grew; {
		grew = false
		for _, ed := range e.vm.Edges {
			for _, end := range [2][2]factor.VarID{{ed.I, ed.J}, {ed.J, ed.I}} {
				if r.Has(end[0]) && !newG.IsEvidence(end[0]) && !r.Has(end[1]) {
					r.Grow(end[1], false)
					grew = true
				}
			}
		}
	}
	return r
}

// within restricts the change set to a scope: the groups with a free
// member variable — the scope then holds every variable of theirs — and
// the evidence changes of members.
func (c ChangeSet) within(g *factor.Graph, r *factor.Reach) ChangeSet {
	in := func(groups []int32) (out []int32) {
		for _, gi := range groups {
			// A group's free variables share a component: a free head decides.
			head := g.GroupHead(int(gi))
			hit := r.Has(head)
			if g.IsEvidence(head) {
				hit = false
				g.GroupVars(gi, func(v factor.VarID) { hit = hit || !g.IsEvidence(v) && r.Has(v) })
			}
			if hit {
				out = append(out, gi)
			}
		}
		return out
	}
	out := ChangeSet{ChangedOld: in(c.ChangedOld), ChangedNew: in(c.ChangedNew), NewFeatures: c.NewFeatures}
	for _, v := range c.EvidenceChanged {
		if r.Has(v) {
			out.EvidenceChanged = append(out.EvidenceChanged, v)
		}
	}
	return out
}

// AutoInferCtx is the serving layer's inference entry point: it notes cs
// into the cumulative post-materialization change set (when enabled),
// chooses a strategy — measured (§3.2) or static (§3.3) per the options —
// and dispatches to the decomposed sampling path (one acceptance test per
// connected component, when the structure changed and decompose is set)
// or the plain strategy runner. Result.Probed carries the measured
// estimate (-1 when the choice was unprobed).
//
// dirty is the update's scope (see Scope), or nil for the whole
// graph. With a scope, the strategy is chosen for, and inference runs
// over, the scope's share of the change set and its variables only, every
// buffer sized by the scope; dirty.Vars is left sorted and
// Result.Marginals[i] is the marginal of dirty.Vars[i].
func (e *Engine) AutoInferCtx(ctx context.Context, newG *factor.Graph, cs ChangeSet, dirty *factor.Reach, decompose bool) *Result {
	if e.opts.CumulativeChanges {
		e.note(cs)
		cs = e.accum
	}
	var scope []factor.VarID
	if dirty != nil {
		if len(dirty.Vars) == 0 {
			// Nothing changed: every published marginal stands (the A1 case,
			// reported under the strategy the rules name for it).
			return &Result{Strategy: e.ChooseStrategy(ChangeSet{}), AcceptanceRate: 1, Probed: -1}
		}
		cs, scope = cs.within(newG, dirty), dirty.Sorted()
	}
	strat, probed := e.ChooseStrategyMeasured(newG, cs)
	skipped := e.probeSkip
	var res *Result
	if strat == StrategySampling && cs.StructureChanged() && decompose {
		res = e.InferDecomposedCtx(ctx, newG, cs, ComponentGroups(newG, scope), scope)
	} else {
		res = e.inferAs(ctx, newG, cs, strat, scope)
	}
	res.Probed = probed
	res.ProbeReused = e.probeHit
	res.ProbeSkipped = skipped
	return res
}

// inferAs runs one inference pass under an already-chosen strategy (the
// run-time exhaustion fallback of rule 4 still applies inside the
// sampling branch). Only the variational runner is scoped; the global
// Metropolis-Hastings chain and the rerun always cover the graph, and
// their estimate is then read off at the scope.
func (e *Engine) inferAs(ctx context.Context, newG *factor.Graph, cs ChangeSet, strat Strategy, scope []factor.VarID) *Result {
	start := time.Now()
	res := &Result{Strategy: strat, AcceptanceRate: 1, Probed: -1}
	atScope := func(m []float64) []float64 {
		if scope == nil {
			return m
		}
		out := make([]float64, len(scope))
		for i, v := range scope {
			out[i] = m[v]
		}
		return out
	}
	rerun := func() {
		var m []float64
		m, res.Solved = RerunWithCtx(ctx, newG, e.opts.Burnin, e.opts.KeepSamples, e.opts.Seed+29, e.opts.Runtime)
		res.Marginals = atScope(m)
	}
	switch res.Strategy {
	case StrategySampling:
		sr := SamplingInferCtx(ctx, e.old, newG, e.store, cs, e.opts.KeepSamples, e.opts.Seed+17, e.opts.Runtime.Workers)
		res.AcceptanceRate = sr.AcceptanceRate()
		res.SamplesUsed = sr.Proposed
		if !canceled(ctx) {
			e.notePrior(res.AcceptanceRate, sr.Proposed)
		}
		if sr.Exhausted && sr.WorldsObserved < e.opts.KeepSamples && !canceled(ctx) {
			if e.vm != nil {
				// Rule 4: out of samples → variational.
				res.Marginals, res.Solved = VariationalInferCtx(ctx, e.vm, e.old, newG, cs.ChangedNew, scope,
					e.opts.Burnin, e.opts.KeepSamples, e.opts.Seed+23)
				res.Strategy = StrategyVariational
				res.FellBack = true
			} else {
				// Lesion configuration without the variational side: rerun.
				rerun()
				res.Strategy = StrategyRerun
				res.FellBack = true
			}
		} else {
			res.Marginals = atScope(sr.Marginals)
		}
	case StrategyVariational:
		res.Marginals, res.Solved = VariationalInferCtx(ctx, e.vm, e.old, newG, cs.ChangedNew, scope,
			e.opts.Burnin, e.opts.KeepSamples, e.opts.Seed+23)
	default:
		rerun()
	}
	res.Elapsed = time.Since(start)
	return res
}

// localOf is v's index in the sorted scope, or v itself on the whole graph
// (nil scope); -1 when v lies outside the scope.
func localOf(scope []factor.VarID, v factor.VarID) int {
	if scope == nil {
		return int(v)
	}
	if i, ok := slices.BinarySearch(scope, v); ok {
		return i
	}
	return -1
}

// InferDecomposedCtx runs per-block incremental inference over a
// decomposition into independent blocks (ComponentGroups): blocks
// untouched by the update adopt stored samples directly (acceptance rate
// 1 — no computation on their factors), touched blocks run a block-local
// acceptance test. This is the mechanism behind the Figure 14 lesion:
// without decomposition a single global acceptance test collapses when
// any part of the distribution changes. ctx is checked between
// stored-sample proposals.
//
// With a nil scope the blocks cover the graph, free variables in no block
// share a residual one, and the run consumes the worlds it replays. With
// a scope (sorted; cs and groups restricted to it) the chain runs on the
// scope's induced subgraph — its state, estimator and result are sized by
// the scope, Result.Marginals[i] belonging to scope[i] — and the run,
// which reads only its own columns of the worlds it replays, consumes only
// that share of them.
func (e *Engine) InferDecomposedCtx(ctx context.Context, newG *factor.Graph, cs ChangeSet, groups []DecompGroup, scope []factor.VarID) *Result {
	start := time.Now()
	res := &Result{Strategy: StrategySampling, AcceptanceRate: 1, Probed: -1}
	// Groups created by post-materialization updates are not part of
	// Pr(0); a later modification of one has no old-side energy.
	cs.ChangedOld = clampToGraph(e.old, cs.ChangedOld)

	// The chain lives on target: the graph, or the subgraph induced by the
	// scope, whose variable l is vars[l]. A free member of a scope keeps
	// every one of its groups there, so its conditional is the graph's.
	n := newG.NumVars()
	target, vars := newG, scope
	if scope != nil {
		target, _ = newG.Induced(scope)
	} else {
		vars = make([]factor.VarID, n)
		for v := range vars {
			vars[v] = factor.VarID(v)
		}
	}
	est := gibbs.NewEstimator(len(vars))
	blockOf := make([]int32, len(vars)) // by target id
	for l := range blockOf {
		blockOf[l] = -1
	}
	for bi, grp := range groups {
		for _, v := range grp.Inactive {
			blockOf[localOf(scope, v)] = int32(bi)
		}
	}
	// Residual block for unassigned free vars (e.g. new vars). Of a
	// block's variables a stored world proposes the stored ones; the fresh
	// ones — appended since materialization — keep their chain values.
	residual := len(groups)
	nBlocks := residual + 1
	type member struct{ v, l factor.VarID } // one variable: its id in newG, its id in target
	varsByBlock := make([][]member, nBlocks)
	var stored, fresh []member
	for l, v := range vars {
		if newG.IsEvidence(v) {
			continue
		}
		if blockOf[l] == -1 && scope == nil {
			blockOf[l] = int32(residual)
		}
		m := member{v: v, l: factor.VarID(l)}
		if b := blockOf[l]; b >= 0 {
			varsByBlock[b] = append(varsByBlock[b], m)
		}
		if int(v) < e.store.NumVars() {
			stored = append(stored, m)
		} else {
			fresh = append(fresh, m)
		}
	}

	// CSR-direct: GroupVars reports the head first, then each live
	// grounding's variables in pool order — the same scan order the
	// nested-view walk used, without synthesizing the grounding list.
	blockForGroup := func(g *factor.Graph, gi int32) int {
		block := residual
		found := false
		g.GroupVars(gi, func(v factor.VarID) {
			if found || g.IsEvidence(v) {
				return
			}
			if l := localOf(scope, v); l >= 0 && blockOf[l] >= 0 {
				block = int(blockOf[l])
				found = true
			}
		})
		return block
	}
	// A block is closed when every variable its changed groups read that
	// the chain can move is its own: its score then moves only when the
	// block itself does, and is kept between proposals. (A group straddles
	// blocks once compaction has dropped the tombstoned grounding that
	// tied them; such a block is rescored on every test.)
	changedNewByBlock := make([][]int32, nBlocks)
	changedOldByBlock := make([][]int32, nBlocks)
	closed := make([]bool, nBlocks)
	for b := range closed {
		closed[b] = true
	}
	place := func(g *factor.Graph, changed []int32, byBlock [][]int32) {
		for _, gi := range changed {
			b := blockForGroup(g, gi)
			byBlock[b] = append(byBlock[b], gi)
			g.GroupVars(gi, func(v factor.VarID) {
				if l := localOf(scope, v); l >= 0 && !newG.IsEvidence(v) && int(blockOf[l]) != b {
					closed[b] = false
				}
			})
		}
	}
	place(newG, cs.ChangedNew, changedNewByBlock)
	place(e.old, cs.ChangedOld, changedOldByBlock)

	rng := rand.New(rand.NewSource(e.opts.Seed + 31))
	st := factor.NewState(target)
	sampler := gibbs.FromState(st, e.opts.Seed+37)

	// Old-graph groups reference only old variables, so the (wider) new
	// world can be scored against both graphs directly.
	blockScore := func(world []bool, b int) float64 {
		return newG.EnergyOfGroups(world, changedNewByBlock[b]) -
			e.old.EnergyOfGroups(world, changedOldByBlock[b])
	}

	// Worlds are scored under newG's variable ids (a byte per variable):
	// cur is the chain's world — its own assignment on the whole graph, a
	// mirror of it laid over the evidence on a scope — and hybrid is cur
	// except within the block under test.
	cur := st.Assign
	if scope != nil {
		cur = make([]bool, n)
		for v := range cur {
			cur[v] = newG.IsEvidence(factor.VarID(v)) && newG.EvidenceValue(factor.VarID(v))
		}
	}
	prop := make([]bool, n)
	hybrid := slices.Clone(cur)
	adopt := func(ms []member) {
		for _, m := range ms {
			st.Set(m.l, prop[m.v])
			cur[m.v], hybrid[m.v] = prop[m.v], prop[m.v]
		}
	}
	// curScore[b] is blockScore(cur, b) while known[b]: set when block b
	// adopts a proposal (the hybrid it was scored on is then the chain's
	// world), dropped when a fresh variable of the block is resampled, and
	// never kept for a block that is not closed.
	curScore := make([]float64, nBlocks)
	known := make([]bool, nBlocks)
	accepted, proposed := 0, 0
	next, used := e.store.Len()-e.store.Remaining(), 0
	for est.N() < e.opts.KeepSamples {
		if canceled(ctx) {
			break
		}
		if used == e.store.Remaining() {
			res.FellBack = true
			break
		}
		for _, m := range stored {
			prop[m.v] = e.store.Bit(next+used, int(m.v))
		}
		used++
		for _, m := range fresh {
			prop[m.v] = cur[m.v]
		}
		for b, ms := range varsByBlock {
			touched := len(changedNewByBlock[b]) > 0 || len(changedOldByBlock[b]) > 0
			if !touched {
				// Untouched block: adopt the proposal outright.
				adopt(ms)
				continue
			}
			proposed++
			differs := false
			for _, m := range ms {
				hybrid[m.v] = prop[m.v]
				differs = differs || prop[m.v] != cur[m.v]
			}
			if !differs {
				// The proposal is the chain's world on this block: d = 0
				// exactly, accepted without a score or a draw.
				accepted++
				continue
			}
			if !known[b] {
				curScore[b], known[b] = blockScore(cur, b), closed[b]
			}
			propScore := blockScore(hybrid, b)
			if d := propScore - curScore[b]; d >= 0 || rng.Float64() < math.Exp(d) {
				accepted++
				adopt(ms)
				curScore[b] = propScore
			} else {
				for _, m := range ms {
					hybrid[m.v] = cur[m.v]
				}
			}
		}
		// Resample the variables the update appended from their
		// conditionals given the adopted world.
		for _, m := range fresh {
			was := st.Assign[m.l] // cur is st.Assign itself on the whole graph
			sampler.SampleVar(m.l)
			if b := blockOf[m.l]; b >= 0 && st.Assign[m.l] != was {
				known[b] = false
			}
			cur[m.v] = st.Assign[m.l]
			hybrid[m.v] = cur[m.v]
		}
		est.Observe(st.Assign)
	}
	// A whole-graph run spends every world it replayed. A scoped run read
	// len(scope) of each world's n columns and spends that share of them
	// (rounded up), so rule 4 and the KB's low-water refill meter the
	// stored bits a run used, not the number of runs.
	if scope != nil {
		used = (used*len(scope) + n - 1) / n
	}
	e.store.Skip(used)
	if res.FellBack && e.vm != nil && est.N() < e.opts.KeepSamples && !canceled(ctx) {
		res.Marginals, res.Solved = VariationalInferCtx(ctx, e.vm, e.old, newG, cs.ChangedNew, scope,
			e.opts.Burnin, e.opts.KeepSamples, e.opts.Seed+41)
		res.Strategy = StrategyVariational
	} else {
		res.Marginals = est.Means()
	}
	if proposed > 0 {
		res.AcceptanceRate = float64(accepted) / float64(proposed)
	}
	if !canceled(ctx) {
		e.notePrior(res.AcceptanceRate, proposed)
	}
	res.SamplesUsed = proposed
	res.Elapsed = time.Since(start)
	return res
}
