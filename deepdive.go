// Package deepdive is a from-scratch Go implementation of the DeepDive
// knowledge-base-construction system described in "Incremental Knowledge
// Base Construction Using DeepDive" (Shin et al., VLDB 2015).
//
// A DeepDive program is a set of datalog-style rules over a user schema:
// deterministic candidate-generation rules, weighted feature-extraction
// and inference rules (with weight tying and UDF weight expressions), and
// supervision rules deriving evidence. Grounding evaluates the rules into
// a factor graph; Gibbs sampling estimates the marginal probability of
// every candidate fact; weight learning fits the rule weights to the
// evidence.
//
// The distinguishing feature, following the paper, is *incrementality*:
// after an initial materialization, both grounding (DRed delta rules) and
// inference (sampling and variational materialization with a rule-based
// optimizer) process updates — new documents, new rules, new supervision —
// orders of magnitude faster than re-running from scratch, with nearly
// identical output.
//
// The serving API separates the KB that answers queries from the pipeline
// that refreshes it. Reads go through immutable Snapshots (lock-free,
// safe under any concurrency); writes take a context.Context and publish
// a fresh snapshot per state change; the update queue coalesces streams
// of small deltas into batched applies.
//
// Quick start:
//
//	kb, _ := deepdive.OpenKB(source, deepdive.WithUDF("phrase", phraseFn))
//	kb.Load("Sentence", sentences)
//	ctx := context.Background()
//	kb.Init(ctx)
//	kb.Learn(ctx)
//	kb.Materialize(ctx)
//
//	// Serve queries from any number of goroutines:
//	snap := kb.Snapshot()
//	for _, f := range snap.Extractions("HasSpouse", 0.9) { ... }
//
//	// Stream updates through the coalescing queue:
//	t := kb.Updates().Submit(deepdive.Update{RuleSource: newRules})
//	res, _ := t.Wait(ctx)
package deepdive

import (
	"time"

	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
	"deepdive/internal/persist"
	"deepdive/internal/serve"
)

// Tuple is one relational row (all values are strings).
type Tuple = db.Tuple

// UDF maps bound weight-expression arguments to a tie key. It must be pure
// and must not keep args past the call (see ground.UDF).
type UDF = ground.UDF

// Semantics selects the counting semantics g(n) of a rule (Figure 4 of
// the paper).
type Semantics = factor.Semantics

// The three semantics of Figure 4.
const (
	Linear  = factor.Linear
	Logical = factor.Logical
	Ratio   = factor.Ratio
)

// Strategy identifies how an update computed its marginals: exactly, or by
// the incremental-inference strategy its remainder ran (see
// UpdateResult.Strategy).
type Strategy = inc.Strategy

// Strategies reported by Update results.
const (
	StrategySampling    = inc.StrategySampling
	StrategyVariational = inc.StrategyVariational
	StrategyRerun       = inc.StrategyRerun
	StrategyExact       = inc.StrategyExact
)

// I/O fault injection. Unlike a crash at a kill point (which the recovery
// tests simulate), an injected I/O fault *returns*: the write path sees
// ENOSPC/EIO-style errors or added latency and must degrade gracefully.
// IOFaultPlan is the concrete injector — arm one-shot, sticky, or
// probabilistic errors and per-op latency, then pass it via WithIOFaults.
type (
	IOInjector  = persist.Injector
	IOFaultOp   = persist.Op
	IOFaultPlan = persist.FaultPlan
)

// Injectable I/O operations of the durability layer.
const (
	IOWALAppend = persist.OpWALAppend // WAL record write
	IOWALSync   = persist.OpWALSync   // WAL fsync (the durability point)
	IOWALCreate = persist.OpWALCreate // WAL segment creation (checkpoint rotation)
	IOSnapWrite = persist.OpSnapWrite // snapshot temp-file write
	IOSnapSync  = persist.OpSnapSync  // snapshot fsync before rename
)

// Canonical injected-error classes, for errors.Is assertions.
var (
	ErrInjectedNoSpace = persist.ErrInjectedNoSpace
	ErrInjectedIO      = persist.ErrInjectedIO
)

// NewIOFaultPlan returns an empty injection plan; seed fixes the
// probabilistic arm's RNG so chaos schedules are reproducible.
func NewIOFaultPlan(seed int64) *IOFaultPlan { return persist.NewFaultPlan(seed) }

// Options configure a KB.
type Options struct {
	UDFs map[string]UDF

	// Learning.
	LearnEpochs int     // full learning epochs (default 12)
	LearnStep   float64 // SGD step size (default 0.25)

	// Inference.
	InferBurnin int // Gibbs burn-in sweeps (default 30)
	InferKeep   int // kept worlds (default 300)

	// Incremental materialization.
	MatSamples int     // stored sample worlds (default 1200)
	Lambda     float64 // variational regularization λ (default 0.01)

	// Parallelism shards Gibbs sweeps (inference, learning chains,
	// materialization) across this many workers: <= 1 sequential, n > 1
	// uses n workers, negative means one worker per core. Ignored when
	// Replicas selects the replica engine. Grounding is sequential.
	Parallelism int

	// Replicas selects the DimmWitted-style replica engine for every Gibbs
	// chain the engine runs: each of n workers owns a full private
	// assignment copy over the shared CSR pools, and the driver merges the
	// copies every SyncEvery sweeps by consensus vote and ring exchange.
	// Learning runs the clamped and free chains of the components it cannot
	// enumerate on the engine and steps one model on their replica-averaged
	// statistics. n >= 1 replicas, negative
	// means one per core, 0 keeps the sharded/sequential runtime.
	Replicas int
	// SyncEvery is the replica merge interval in sweeps; <= 0 selects the
	// default (8).
	SyncEvery int

	// MaxPending bounds the update queue's pending depth: when the queue
	// already holds this many unapplied updates, Submit blocks (and
	// SubmitCtx honours its context) until the writer drains a batch —
	// backpressure instead of unbounded producer memory. 0 means
	// unbounded.
	MaxPending int

	// RematLowWater arms the quality autopilot's store refill: when an
	// update's inference leaves fewer than this many unconsumed sample
	// worlds in the store, that update's finish stage re-materializes Pr(0)
	// from the current graph and weights (MatSamples fresh worlds) before
	// it publishes, resetting the materialization boundary, and publishes
	// the fresh store's means. The refill is part of the update — WAL
	// replay repeats it — and costs what Materialize costs. 0 (the
	// default) never refills.
	RematLowWater int

	// DataDir enables durability: the directory holds snapshot files
	// (sectioned, checksummed images of the full KB state) and write-ahead
	// log segments recording every committed update. Opening a KB with a
	// DataDir that already holds a snapshot recovers from it — the latest
	// valid snapshot is loaded and the WAL tail replayed — instead of
	// starting empty (see KB.Recovered). Durability begins at the first
	// Checkpoint: Load/Init/Learn/Materialize are not logged, so the
	// intended lifecycle is to Checkpoint once the pipeline is
	// materialized and after any later monolithic writer. Empty (the
	// default) disables persistence.
	DataDir string

	// IOFaults injects returned I/O errors and latency into the durability
	// layer's write paths — WAL append, WAL fsync, segment creation,
	// snapshot write, snapshot fsync (see the IO* operation constants).
	// Unlike a crash, which the recovery tests inject at kill points, these
	// return: the KB must survive them, not just recover from them. Nil in
	// production.
	IOFaults IOInjector

	// RepairBackoff and RepairBackoffMax schedule the background repair
	// loop: the delay before each attempt is jittered over [b/2, b], with
	// b doubling from RepairBackoff and capped at RepairBackoffMax.
	// Defaults: 200ms and 10s.
	RepairBackoff    time.Duration
	RepairBackoffMax time.Duration

	// ReadOnlyAfter escalates DurabilityDegraded to ReadOnly after this
	// many consecutive failed auto-repair attempts. The repair loop keeps
	// retrying either way — the escalation changes the refusal error
	// (ErrReadOnly, serve-tier code "read_only") so clients stop
	// hot-retrying a KB whose disk is probably gone. 0 (the default)
	// never escalates.
	ReadOnlyAfter int

	// Lesions switches mechanisms off for ablation studies (see Lesions).
	// The zero value — everything on — is the production configuration.
	Lesions Lesions

	Seed int64
}

// Lesions is the ablation surface: each field switches one mechanism of
// the development loop off, the way the paper's lesion studies (Figures
// 11 and 14) and this repository's benchmarks do. (The oracles of the
// differential tests — the rebuilding update, the serialized queue — are
// test seams, not lesions.) The zero value runs everything; no field is
// meant for production.
type Lesions struct {
	// StaticOptimizer reverts the quality autopilot for an update's
	// remainder: the §3.3 static strategy rules instead of the §3.2
	// measured acceptance probe, per-update change sets instead of the
	// cumulative post-materialization set, and no store refill whatever
	// RematLowWater says.
	StaticOptimizer bool
	// NoAutoRepair turns the background WAL repair loop off: after a
	// failed append the KB stays DurabilityDegraded (refusing updates)
	// until a manual Checkpoint.
	NoAutoRepair bool

	// NoSampling and NoVariational disable one materialization strategy
	// (Figure 11: every update's remainder — the dirty components past the
	// enumeration bound — runs variationally / by sampling with a rerun
	// fallback). NoWorkloadInfo ignores what the update changed: the
	// remainder always tries sampling first and falls back on store
	// exhaustion. The components that enumerate are solved exactly under
	// all three, as StaticOptimizer leaves them too.
	NoSampling     bool
	NoVariational  bool
	NoWorkloadInfo bool
	// NoDecomposition disables the Algorithm 2 blocked inference (Figure
	// 14): nothing is solved component by component — every update goes to
	// the optimizer whole —, a sampling update runs one global acceptance
	// test instead of one per connected component (the same runner, handed
	// one block), and inference always covers the graph.
	NoDecomposition bool
	// GlobalFinish makes every update's finish stage cover the graph:
	// warmstart learning moves every learnable weight over every variable
	// and inference solves every component of the graph, instead of working
	// on the connected components the delta touched.
	GlobalFinish bool
}

// Option mutates Options.
type Option func(*Options)

// WithUDF registers a user-defined weight function.
func WithUDF(name string, f UDF) Option {
	return func(o *Options) {
		if o.UDFs == nil {
			o.UDFs = map[string]UDF{}
		}
		o.UDFs[name] = f
	}
}

// WithSeed fixes the random seed (default 0).
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithLearning overrides learning parameters: the SGD epochs of Learn (ten
// gradient steps each) and the step size. The epochs also size the budget
// the enumeration bound is read against — 2^k worlds against the sweeps a
// Gibbs chain pair would run (10 burn-in plus 10 per epoch) times k, for an
// evidence-bearing component of k variables, never beyond 20 — so on a graph
// whose components are all small learning runs no chain.
func WithLearning(epochs int, step float64) Option {
	return func(o *Options) { o.LearnEpochs = epochs; o.LearnStep = step }
}

// WithInference overrides inference parameters: the sweeps a Gibbs chain
// burns in for and then keeps. Infer (and an update's rerun or variational
// pass) samples only the connected components it cannot enumerate within
// that budget — 2^k worlds against (burnin+keep)·k resamplings for a
// component of k free variables, never beyond 20 variables — so on a graph
// whose components are all small the two numbers bound the enumeration and no
// chain runs.
func WithInference(burnin, keep int) Option {
	return func(o *Options) { o.InferBurnin = burnin; o.InferKeep = keep }
}

// WithMaterialization overrides incremental materialization parameters: the
// number of stored worlds and the variational λ. The worlds of components
// that can be enumerated within the budget of samples sweeps plus
// WithInference's burn-in are exact independent draws; only the others cost a
// sweep each, after the burn-in.
func WithMaterialization(samples int, lambda float64) Option {
	return func(o *Options) { o.MatSamples = samples; o.Lambda = lambda }
}

// WithParallelism shards every Gibbs chain the engine runs (inference,
// learning, materialization) across n workers. n <= 1 keeps the
// sequential sampler; a negative n means one worker per core. Grounding
// has one evaluator and does not shard.
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithReplicas runs every Gibbs chain on the replica engine: n workers
// with full private assignment copies, merged every syncEvery sweeps (see
// Options.Replicas). n negative means one replica per core; syncEvery <= 0
// selects the default.
func WithReplicas(n, syncEvery int) Option {
	return func(o *Options) { o.Replicas = n; o.SyncEvery = syncEvery }
}

// WithMaxPending bounds the update queue's pending depth (see
// Options.MaxPending): submissions past the bound block until the writer
// drains a batch. n <= 0 means unbounded (the default).
func WithMaxPending(n int) Option { return func(o *Options) { o.MaxPending = n } }

// WithRematerialization arms the store refill (see Options.RematLowWater):
// when fewer than lowWater unconsumed samples remain after an update's
// inference, the same update re-materializes Pr(0) before it publishes.
// Only a sampling run over an update's remainder — the dirty components
// past the enumeration bound — draws the store down; an update whose
// components all enumerate never triggers a refill.
// lowWater <= 0 disables. budget is ignored: a refill draws
// WithMaterialization's sample count, because a wall-clock extension would
// make WAL replay diverge. The refill runs on the update that triggers it —
// milliseconds where every component enumerates, but a graph with
// components past the enumeration bound sweeps them in line, holding that
// update for a Gibbs run.
func WithRematerialization(lowWater int, budget time.Duration) Option {
	return func(o *Options) { o.RematLowWater = lowWater }
}

// WithDataDir enables durability under dir: checkpoints write snapshot
// files there, committed updates are write-ahead logged, and reopening
// recovers the latest snapshot plus the WAL tail (see Options.DataDir).
func WithDataDir(dir string) Option { return func(o *Options) { o.DataDir = dir } }

// WithIOFaults installs an I/O fault injector on the durability layer's
// write paths (see Options.IOFaults). Build one with NewIOFaultPlan.
func WithIOFaults(inj IOInjector) Option { return func(o *Options) { o.IOFaults = inj } }

// WithRepairBackoff overrides the repair loop's backoff schedule (see
// Options.RepairBackoff). Non-positive values keep the defaults.
func WithRepairBackoff(base, max time.Duration) Option {
	return func(o *Options) { o.RepairBackoff = base; o.RepairBackoffMax = max }
}

// WithReadOnlyAfter escalates to the ReadOnly health state after n
// consecutive failed auto-repair attempts (see Options.ReadOnlyAfter).
// n <= 0 (the default) never escalates.
func WithReadOnlyAfter(n int) Option { return func(o *Options) { o.ReadOnlyAfter = n } }

// WithLesions selects an ablation configuration (see Lesions). The zero
// Lesions{} is the default.
func WithLesions(l Lesions) Option { return func(o *Options) { o.Lesions = l } }

func (o *Options) fill() {
	if o.LearnEpochs <= 0 {
		o.LearnEpochs = 12
	}
	if o.LearnStep <= 0 {
		o.LearnStep = 0.25
	}
	if o.InferBurnin <= 0 {
		o.InferBurnin = 30
	}
	if o.InferKeep <= 0 {
		o.InferKeep = 300
	}
	if o.MatSamples <= 0 {
		o.MatSamples = 1200
	}
	if o.Lambda <= 0 {
		o.Lambda = 0.01
	}
	if o.RepairBackoff <= 0 {
		o.RepairBackoff = 200 * time.Millisecond
	}
	if o.RepairBackoffMax <= 0 {
		o.RepairBackoffMax = 10 * time.Second
	}
}

// Update is one increment of the development loop: new rules (as program
// source), inserted tuples, and/or deleted tuples. RuleSource holds rules
// only, over the relations the program declares, none under a label the
// program already uses; it is parsed against the running program
// (datalog.ParseRules), which is not re-parsed. A tuple has as many
// values as its relation has columns, a value holds any bytes but 0x1f,
// and a delete names a tuple the relation holds (counting this update's
// own inserts): an update breaking any of that is refused whole, before it
// changes anything, with an error matching ErrInvalidTuple. Its JSON form
// is the body of POST /v1/update.
type Update = serve.Update

// ErrInvalidTuple is the class of the errors refusing an update (or a
// Load) for a malformed base tuple; see Update. The serving tier answers
// it 400.
var ErrInvalidTuple = ground.ErrBadTuple

// UpdateResult reports how an update (or a coalesced batch of updates)
// was processed.
type UpdateResult struct {
	GroundTime time.Duration
	LearnTime  time.Duration
	InferTime  time.Duration
	// Strategy is StrategyExact when every dirty component enumerated on the
	// updated graph (or nothing was dirty): the marginals are KB.Infer's, no
	// stored world was read. Otherwise it is the strategy the §3.2 optimizer
	// ran on the remainder, the components past the enumeration bound; the
	// others still got their exact marginals.
	Strategy   Strategy
	Acceptance float64
	// Probe is the measured acceptance-rate estimate the optimizer based
	// its strategy choice on, or -1 when the choice was made without
	// probing (static rules, empty change set, or an upfront store-level
	// decision).
	Probe float64
	// ProbeReused is always false: the optimizer keeps no probe memo, so
	// every probe is measured. The field stays for callers that read it.
	ProbeReused bool
	NewVars     int
	NewFactors  int
	// ScopeVars, LearnedWeights and DirtyVars say how much of the graph the
	// finish stage worked on: the variables of the subgraph warmstart
	// learning sampled (0: learning was skipped) and the weights it was
	// free to move, and the variables whose marginals inference
	// re-estimated (every other one kept its published value). 0/0/0 is
	// "nothing to do"; Stats().Variables is "the whole graph".
	ScopeVars      int
	LearnedWeights int
	DirtyVars      int
	// SweptVars is how many of the update's dirty free variables were not
	// solved exactly: those of the components past the enumeration bound,
	// which went to Strategy. 0 on an exact update. Under NoDecomposition,
	// which solves nothing by component, it is what a variational run (or a
	// rerun fallback) left to its Gibbs chain, and 0 after a sampling run.
	SweptVars int
	// Coalesced is how many queued updates the batch merged (1 for a
	// direct Apply; set by the update queue).
	Coalesced int
	// Epoch is the snapshot generation this update's results were
	// published under.
	Epoch uint64
}

// Extraction is one fact of the output knowledge base.
type Extraction struct {
	Tuple       Tuple
	Probability float64
	Evidence    bool
}

// GraphStats summarizes the grounded factor graph.
type GraphStats struct {
	Variables  int
	Factors    int
	Weights    int
	Evidence   int
	QueryFacts int
	// Autopilot is the quality-autopilot state at publication time (nil
	// on snapshots published before Materialize).
	Autopilot *AutopilotStats
	// Inferred and Materialized say how the last Infer and the live engine's
	// materialization (Materialize, a store refill, or a checkpoint's
	// re-materialization) came by their result, Learned how the last Learn
	// came by its gradient over the evidence-bearing components of the
	// evidence-released graph; zero before the call. A KB restored from its
	// data directory reports the materialization recovery repeated — the
	// checkpoint's — and zero Inferred and Learned until it runs them itself.
	Inferred, Materialized, Learned Solved
}

// Solved counts the variables a from-scratch pass solved exactly — Closed in
// closed form (alone in their component), Enumerated by walking every world of
// their component — and those it Swept by Gibbs sampling, their component
// being past the enumeration bound; Largest is the largest component met.
// Inference and materialization count the free variables of the graph's
// components with evidence fixed, learning every variable of the components
// holding evidence once it is released. "Why was this pass slow" is answered
// by Swept > 0.
type Solved = inc.Solved

// weightChanges is what relearning did to the distribution the engine
// materialized: the materialized groups tied to a weight this update moved
// (moved[w]; nil = none) whose value now differs from the materialized
// one — a weight that moved back is not marked — as a change set, and the
// variables of every group, materialized or newer, tied to a moved
// weight: the ones whose conditionals the move changed.
func weightChanges(eng *inc.Engine, g *factor.Graph, moved []bool) (cs inc.ChangeSet, touched []factor.VarID) {
	if moved == nil {
		return cs, nil
	}
	oldG := eng.OldGraph()
	const eps = 1e-9
	touch := func(v factor.VarID) { touched = append(touched, v) }
	for gi := 0; gi < g.NumGroups(); gi++ {
		w := g.GroupWeight(gi)
		if !moved[w] {
			continue
		}
		g.GroupVars(int32(gi), touch)
		if gi < oldG.NumGroups() && int(w) < oldG.NumWeights() {
			if d := oldG.Weight(w) - g.Weight(w); d > eps || d < -eps {
				cs.ChangedOld = append(cs.ChangedOld, int32(gi))
				cs.ChangedNew = append(cs.ChangedNew, int32(gi))
			}
		}
	}
	return cs, touched
}
