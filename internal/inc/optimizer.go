package inc

import (
	"context"
	"fmt"
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

// Strategy identifies how an update's marginals were computed: exactly, by
// enumerating its dirty components on the updated graph, or — for the
// components past the enumeration bound — by one of the strategies the §3.2
// optimizer chooses between.
type Strategy uint8

const (
	// StrategySampling is the tuple-bundle + Metropolis-Hastings approach.
	StrategySampling Strategy = iota
	// StrategyVariational is the log-det-relaxation approximate graph.
	StrategyVariational
	// StrategyRerun runs Gibbs from scratch (the baseline, not chosen by
	// the optimizer; used by lesion configurations).
	StrategyRerun
	// StrategyExact is the strawman of Section 3.2.1 applied to the update
	// itself: every dirty component enumerated on the updated graph, no
	// stored world read and no approximation built. An update reports it
	// when nothing was left for the optimizer, or nothing was dirty.
	StrategyExact
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
	case StrategyExact:
		return "exact"
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
	// Runtime selects the Gibbs chain for materialization and the rerun
	// (sequential, sharded or replica).
	Runtime gibbs.Runtime
	Seed    int64

	// MeasuredOptimizer drives the sampling-vs-variational choice from a
	// measured acceptance-rate probe over the stored samples (the §3.2
	// optimizer) instead of the purely rule-based §3.3 decision: sampling
	// when the measured rate is ≥ acceptHigh, variational when it is
	// < acceptLow, with the static rules as tie-breakers in between.
	// Off by default — ChooseStrategy keeps the static behavior.
	MeasuredOptimizer bool

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
	return o
}

// The measured optimizer's probe and thresholds (ChooseStrategyMeasured).
const (
	// probeSamples is how many stored (unconsumed) samples a probe scores.
	// Probing never consumes the store.
	probeSamples = 24
	// acceptHigh is the normalized measured acceptance score
	// (NormalizeAcceptance) at or above which sampling is chosen outright:
	// stored proposals are still being adopted often enough to converge
	// within the sample budget.
	acceptHigh = 0.2
	// acceptLow is the normalized measured acceptance score below which
	// the variational path is chosen outright: nearly every proposal would
	// be rejected, so replaying the store would burn it without mixing.
	acceptLow = 0.02
)

// Result reports one incremental inference run.
type Result struct {
	// Marginals are indexed by variable id after a whole-graph run, by
	// position in the (sorted) scope after a scoped one.
	Marginals []float64
	Strategy  Strategy
	// FellBack reports that the store ran out before a sampling run
	// observed every world it was to keep. After an engine run that is rule
	// 4: Strategy says what finished the job (variational, or a rerun
	// without the variational side); after SamplingInferCtx alone the
	// marginals are those of the worlds it did observe.
	FellBack       bool
	AcceptanceRate float64
	SamplesUsed    int
	Elapsed        time.Duration
	// Probed is the measured acceptance-rate estimate the optimizer based
	// its strategy choice on, or -1 when the choice was made without
	// probing (static rules, empty change set, or an upfront store-level
	// decision).
	Probed float64
	// Solved is how AutoInferCtx's per-component solve split the dirty
	// components: Closed and Enumerated exactly, Swept the remainder it
	// handed to Strategy. Without that solve (decompose off, or a runner
	// called directly) it counts what a variational or rerun pass (chosen or
	// fallen back to) solved in closed form, by enumeration and by sweeping;
	// zero after a sampling pass.
	Solved Solved
}

// Engine owns the materialization of the original distribution Pr(0) and
// answers updated-distribution queries. Following Section 3.3, it
// materializes *both* the sampling and the variational form ("we propose
// to materialize the factor graph using both the sampling approach and
// the variational approach, and defer the decision to the inference
// phase") — and, when nothing is left for a chain to sweep, defers both
// until an update first reads them (see NewEngine).
type Engine struct {
	opts Options
	old  *factor.Graph
	// store and vm are Pr(0)'s stored worlds and its variational
	// approximation (vm nil with the variational side off): both nil until
	// materialize draws and fits them. worlds draws the worlds.
	store  *gibbs.Store
	vm     *Variational
	worlds *worlds
	solved Solved

	// accum is the union of every change set noted since materialization
	// (Options.CumulativeChanges): the updated distribution differs from
	// Pr(0) by all of them, so every inference pass scores the union.
	accum ChangeSet
	// inOld, inNew and inEv mark accum's ids, so noting an update costs
	// O(|update|), not O(|accum|).
	inOld, inNew, inEv idSet

	matElapsed time.Duration
}

// NewEngine materializes g under both strategies. The stored worlds are
// exact, independent draws from Pr(0) wherever the graph's components can be
// enumerated under the budget of Burnin+MaterializationSamples sweeps (see
// solveComponents) — the independent proposals the acceptance test of
// Section 3.2.2 assumes: no burn-in, no correlation between consecutive
// worlds. Only components past that bound are sampled, one world a sweep
// after Burnin sweeps, on the chain Options.Runtime selects.
//
// NewEngine materializes a clone of g, which the engine owns as Pr(0): g
// may be patched and its weights trained afterwards without moving Pr(0).
// It solves the components and holds their tables. When a chain is left
// to sweep it then draws the store and fits the variational approximation
// at once. Otherwise it defers both to the first read that needs them — Store,
// Variational, MaterializeForBudget, a strategy choice or run, an
// AutoInferCtx remainder — which draws the worlds this call would have drawn:
// the same seeded stream, bit for bit. An update its components solve
// exactly reads neither, and so never pays for them.
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
	start := time.Now()
	e := &Engine{opts: o, old: g.Clone()}
	if e.worlds, e.solved = newWorlds(ctx, e.old, o, o.MaterializationSamples, o.Seed); e.worlds == nil {
		return nil, ctx.Err()
	}
	e.matElapsed = time.Since(start)
	if e.solved.Swept > 0 {
		if err := e.materialize(ctx); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// materialize draws the store's first MaterializationSamples worlds and fits
// the variational approximation to them, once: the step NewEngine defers.
// Cancelled, it leaves the engine as it was, the stream rewound, and
// returns ctx's error, so a later attempt draws the same worlds. A fit that
// fails otherwise leaves the engine without the variational side and
// returns its error.
func (e *Engine) materialize(ctx context.Context) error {
	if e.store != nil {
		return nil
	}
	start := time.Now()
	w := e.worlds
	store := gibbs.NewStore(e.old.NumVars())
	if !w.draw(ctx, store, e.opts.MaterializationSamples) {
		w.rng.Seed(e.opts.Seed)
		return ctx.Err()
	}
	var vm *Variational
	var err error
	if !e.opts.DisableVariational {
		if vm, err = MaterializeVariationalCtx(ctx, e.old, store, VariationalOptions{Lambda: e.opts.Lambda}); err != nil && canceled(ctx) {
			w.rng.Seed(e.opts.Seed)
			return err
		}
	}
	e.store, e.vm = store, vm
	e.matElapsed += time.Since(start)
	return err
}

// ready runs the deferred step, reporting false when ctx cancelled it.
func (e *Engine) ready(ctx context.Context) bool {
	return e.materialize(ctx) == nil || !canceled(ctx)
}

// Drawn reports whether the store has been drawn and the approximation fit
// (see NewEngine).
func (e *Engine) Drawn() bool { return e.store != nil }

// MaterializeForBudget keeps drawing samples until the wall-clock budget
// is spent (the paper's Figure 15 protocol, scaled down from 8 hours) and
// returns how many samples are now stored. Worlds arrive topUpWorlds at a
// time, continuing the stream NewEngine began; the budget starts once the
// deferred step has run.
func (e *Engine) MaterializeForBudget(budget time.Duration) int {
	e.materialize(nil)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		e.worlds.draw(nil, e.store, topUpWorlds)
	}
	return e.store.Len()
}

// Solved reports how the materialization came by its worlds: the variables
// drawn exactly (Closed, Enumerated) and those swept by the chain.
func (e *Engine) Solved() Solved { return e.solved }

// MaterializationTime returns the time spent materializing: in NewEngine,
// and in the deferred step once it has run.
func (e *Engine) MaterializationTime() time.Duration { return e.matElapsed }

// Store exposes the sample store (for statistics), drawing it first if
// that was deferred.
func (e *Engine) Store() *gibbs.Store {
	e.materialize(nil)
	return e.store
}

// StoreLevel reports how many worlds the store holds and how many of them
// are unconsumed, without drawing a deferred store: until then both are
// MaterializationSamples, the worlds the draw will store.
func (e *Engine) StoreLevel() (stored, remaining int) {
	if e.store == nil {
		return e.opts.MaterializationSamples, e.opts.MaterializationSamples
	}
	return e.store.Len(), e.store.Remaining()
}

// OldGraph returns the materialized Pr(0) graph, which the engine owns:
// callers read it and must not patch it or set its weights or evidence.
func (e *Engine) OldGraph() *factor.Graph { return e.old }

// Variational exposes the variational materialization, fitting it first if
// that was deferred; nil when disabled, or when a deferred fit failed (see
// materialize).
func (e *Engine) Variational() *Variational {
	e.materialize(nil)
	return e.vm
}

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
//   - probe ≥ acceptHigh → sampling: stored proposals still mix.
//   - probe <  acceptLow → variational: proposals would be rejected
//     wholesale; replaying the store burns it without converging.
//   - in between → the §3.3 static rules tie-break.
//
// The raw rate is rescaled by NormalizeAcceptance before thresholding —
// a short probe chain accepts every new-record score no matter how much
// the distribution changed, so the raw rate has a floor of ≈ H(n)/n that
// would keep acceptLow unreachable.
//
// The probe is skipped (returning -1) when measurement cannot inform the
// choice: MeasuredOptimizer off, a lesion forcing one side, or the
// NoWorkloadInfo lesion (a probe of the change set is workload
// information) — static rules decide; an empty change set (every proposal
// accepts — the A1 case); an evidence change (forced evidence values hide
// the shift from group-energy scoring, so rule 2 decides); or too few
// unconsumed samples to finish a sampling pass anyway (rule 4 applied
// upfront instead of after burning what is left).
//
// The choice is a function of its inputs alone — the store's cursor, cs
// and newG — and keeps no memory between calls: asking twice answers
// twice alike, and a restarted engine at the same store position chooses
// as the original did.
func (e *Engine) ChooseStrategyMeasured(newG *factor.Graph, cs ChangeSet) (Strategy, float64) {
	if !e.opts.MeasuredOptimizer || e.opts.DisableSampling || e.opts.DisableVariational || e.opts.IgnoreWorkload {
		return e.ChooseStrategy(cs), -1
	}
	if cs.Empty() {
		return StrategySampling, -1
	}
	if len(cs.EvidenceChanged) > 0 {
		return e.ChooseStrategy(cs), -1
	}
	e.materialize(nil)
	if e.vm != nil && e.store.Remaining() < e.opts.KeepSamples {
		return StrategyVariational, -1
	}
	n := min(probeSamples, e.store.Remaining())
	probe := NormalizeAcceptance(
		EstimateAcceptanceRate(e.old, newG, e.store, cs, n, e.opts.Seed+43), n)
	switch {
	case probe >= acceptHigh:
		return StrategySampling, probe
	case e.vm != nil && probe < acceptLow:
		return StrategyVariational, probe
	default:
		return e.ChooseStrategy(cs), probe
	}
}

// Accumulated returns the change sets noted since materialization (the
// union AutoInferCtx scores against). Callers must not mutate it.
func (e *Engine) Accumulated() ChangeSet { return e.accum }

// note folds cs into the accumulated change set, duplicate-free and in
// first-noted order, as ChangeSet.Merge would.
func (e *Engine) note(cs ChangeSet) {
	e.accum.ChangedOld = union(&e.inOld, e.accum.ChangedOld, cs.ChangedOld)
	e.accum.ChangedNew = union(&e.inNew, e.accum.ChangedNew, cs.ChangedNew)
	e.accum.EvidenceChanged = union(&e.inEv, e.accum.EvidenceChanged, cs.EvidenceChanged)
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
	e.growEdges(newG, r)
	return r
}

// growEdges closes r under the variational approximation's edges: a
// variational run couples their endpoints, so each needs the other's
// component in its scope.
func (e *Engine) growEdges(newG *factor.Graph, r *factor.Reach) {
	if e.vm == nil {
		return
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

// AutoInferCtx is the serving layer's inference entry point. It notes cs
// into the cumulative post-materialization change set (when enabled), then
// solves the update's dirty components on newG itself, one at a time, under
// the budget of Burnin+KeepSamples sweeps (componentMarginals, the read-out
// from-scratch inference uses): every component that enumerates gets its
// exact marginals, reading and consuming no stored world and building no
// approximation. An update left with nothing else reports StrategyExact.
//
// Only the remainder — the components past the bound — goes to the §3.2
// optimizer: its scope is their free reach plus the variational edges
// leaving it (as Scope grows them), its change set is cs restricted to that
// scope, and the strategy chosen for it — measured (§3.2) or static (§3.3)
// per the options — runs on it (a sampling run takes one acceptance test
// per connected component when the structure changed, one global test
// otherwise). The result reports that strategy, its acceptance and its
// probe (Result.Probed, -1 when unprobed); the enumerated components keep
// their exact marginals. With decompose off (the NoDecomposition lesion: the
// components are the decomposition) nothing is solved exactly and the whole
// scope goes to the optimizer.
//
// dirty is the update's scope (see Scope), or nil for the whole
// graph. With a scope, inference runs over its variables only, every buffer
// sized by the scope; dirty.Vars is left sorted and Result.Marginals[i] is
// the marginal of dirty.Vars[i]. An empty scope (nothing changed: the A1
// case) reports StrategyExact and no marginals.
func (e *Engine) AutoInferCtx(ctx context.Context, newG *factor.Graph, cs ChangeSet, dirty *factor.Reach, decompose bool) *Result {
	if e.opts.CumulativeChanges {
		e.note(cs)
		cs = e.accum
	}
	var scope []factor.VarID
	if dirty != nil {
		if len(dirty.Vars) == 0 {
			return &Result{Strategy: StrategyExact, AcceptanceRate: 1, Probed: -1}
		}
		scope = dirty.Sorted()
	}
	if !decompose {
		if dirty != nil {
			cs = cs.within(newG, dirty)
		}
		return e.optimize(ctx, newG, cs, scope, false)
	}
	start := time.Now()
	target := newG
	if scope != nil {
		target, _ = newG.Induced(scope)
	}
	m, rest, solved, ok := componentMarginals(ctx, target, e.opts.Burnin+e.opts.KeepSamples)
	if !ok || len(rest) == 0 {
		return &Result{Marginals: m, Strategy: StrategyExact, AcceptanceRate: 1, Probed: -1, Solved: solved, Elapsed: time.Since(start)}
	}
	// rest is by target id: a position in the scope, or newG's own.
	global := func(l factor.VarID) factor.VarID {
		if scope == nil {
			return l
		}
		return scope[l]
	}
	if !e.ready(ctx) {
		return &Result{Marginals: m, Strategy: StrategyExact, AcceptanceRate: 1, Probed: -1, Solved: solved, Elapsed: time.Since(start)}
	}
	r := newG.NewReach(true)
	for _, l := range rest {
		r.Grow(global(l), false)
	}
	e.growEdges(newG, r)
	sub := r.Sorted()
	res := e.optimize(ctx, newG, cs.within(newG, r), sub, true)
	for _, l := range rest {
		i, _ := slices.BinarySearch(sub, global(l))
		m[l] = res.Marginals[i]
	}
	res.Marginals, res.Solved, res.Elapsed = m, solved, time.Since(start)
	return res
}

// optimize is the §3.2 optimizer over a scope (nil: the graph) and its share
// of the change set: it chooses a strategy and runs it. A sampling run whose
// structure changed takes one acceptance test per connected component
// (ComponentGroups) when decompose is on, one global test otherwise.
func (e *Engine) optimize(ctx context.Context, newG *factor.Graph, cs ChangeSet, scope []factor.VarID, decompose bool) *Result {
	if !e.ready(ctx) {
		return cancelled(newG, scope)
	}
	strat, probed := e.ChooseStrategyMeasured(newG, cs)
	var blocks []DecompGroup
	if strat == StrategySampling && cs.StructureChanged() && decompose {
		blocks = ComponentGroups(newG, scope)
	}
	res := e.inferAs(ctx, newG, cs, strat, scope, blocks)
	res.Probed = probed
	return res
}

// inferAs runs one inference pass over a scope (nil: the graph) under an
// already-chosen strategy. Sampling runs SamplingInferCtx over blocks (nil:
// one global acceptance test), and rule 4 applies to it here, the one place it
// does: a store that runs out before KeepSamples worlds falls back to the
// variational side, or to a rerun when there is none. The rerun covers the
// graph and is read off at the scope.
func (e *Engine) inferAs(ctx context.Context, newG *factor.Graph, cs ChangeSet, strat Strategy, scope []factor.VarID, blocks []DecompGroup) *Result {
	if !e.ready(ctx) {
		return cancelled(newG, scope)
	}
	start := time.Now()
	res := &Result{Strategy: strat, AcceptanceRate: 1, Probed: -1}
	if strat == StrategySampling {
		res = SamplingInferCtx(ctx, e.old, newG, e.store, cs, blocks, scope, e.opts.KeepSamples, e.opts.Seed+31)
		if canceled(ctx) || !res.FellBack {
			return res
		}
		res.Strategy = StrategyVariational // rule 4: out of samples
		if e.vm == nil {
			res.Strategy = StrategyRerun // a lesion without the variational side
		}
	}
	switch res.Strategy {
	case StrategyVariational:
		res.Marginals, res.Solved = VariationalInferCtx(ctx, e.vm, e.old, newG, cs.ChangedNew, scope,
			e.opts.Burnin, e.opts.KeepSamples, e.opts.Seed+23)
	case StrategyRerun:
		m, solved := RerunWithCtx(ctx, newG, e.opts.Burnin, e.opts.KeepSamples, e.opts.Seed+29, e.opts.Runtime)
		res.Marginals, res.Solved = m, solved
		if scope != nil {
			res.Marginals = make([]float64, len(scope))
			for i, v := range scope {
				res.Marginals[i] = m[v]
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// cancelled is the result of a pass cancelled before it ran: a marginal of
// 0 for every variable of the scope (nil: the graph).
func cancelled(g *factor.Graph, scope []factor.VarID) *Result {
	n := len(scope)
	if scope == nil {
		n = g.NumVars()
	}
	return &Result{Marginals: make([]float64, n), AcceptanceRate: 1, Probed: -1}
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
