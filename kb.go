package deepdive

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"deepdive/internal/datalog"
	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
	"deepdive/internal/learn"
	"deepdive/internal/persist"
)

// KB is the serving handle of a DeepDive knowledge base. It separates the
// two halves of the paper's development loop so they can overlap:
//
//   - Reads are snapshot-isolated and lock-free: Snapshot returns an
//     immutable view (marginals + extraction tables pinned to one
//     grounding version and graph epoch) acquired by an atomic pointer
//     load. Any number of goroutines may query snapshots while writes
//     are in flight; a reader never observes a half-applied update.
//   - Writes — Init, Learn, Infer, Materialize, Apply — are serialized
//     by one writer lock, accept a context.Context for cancellation and
//     deadlines (checked cooperatively between Gibbs sweeps and
//     Metropolis-Hastings proposals), and publish a fresh snapshot on
//     success. A cancelled write returns the context's error and publishes
//     nothing: readers keep the previous consistent view.
//
// Apply is the paper's update, one sequence under the writer lock: ground
// the delta (DRed evaluation + graph commit, see applyGround), then learn,
// infer and publish against Pr(0) (see applyFinish). Updates() exposes an
// asynchronous, coalescing update queue on top of Apply for streaming
// ingest. The zero KB is not usable; construct one with OpenKB.
type KB struct {
	opts Options

	// mu is the writer lock. Every write holds it for its whole length —
	// an Apply from delta evaluation through publication, a monolithic
	// writer (Init, Learn, Infer, Materialize, Checkpoint's compaction,
	// re-materialization and encode) throughout — and so do the reads of
	// live writer state (Relation, Program, Weights, Autopilot). The fields
	// below are guarded by it unless they say otherwise.
	mu sync.Mutex

	grounder *ground.Grounder
	engine   *inc.Engine
	marg     []float64
	inited   bool
	// pending accumulates the change sets of applies whose grounding
	// committed but whose inference never published (cancelled mid-way):
	// the next apply scores the union, so no grounded delta's factors
	// escape the acceptance test.
	pending inc.ChangeSet
	// inferSolved is how the last Infer came by marg, learnSolved how the
	// last Learn came by its gradient.
	inferSolved, learnSolved inc.Solved

	// curGraph is the graph the served state corresponds to — the pointer
	// grounder.Graph() returned at the last commit or publication, so a
	// graph rebuilt since (Checkpoint's compaction) is noticed.
	curGraph *factor.Graph
	// auto aggregates quality-autopilot statistics (strategy counts,
	// acceptance histogram, store refills); rematSpawns counts engine
	// launches, which seed them.
	auto        AutopilotStats
	rematSpawns int64

	// Durability state; see persist.go. wal/walGen form the active
	// write-ahead segment; commitTicket numbers logged commits in WAL
	// order. walBroken latches a failed append — every later update
	// reports a durability error until a Checkpoint writes a complete
	// chain again. ckptMu serializes checkpoints; replaying marks WAL
	// replay during recovery (suppresses re-logging); recovered reports restore-from-snapshot;
	// engineSeed is the seed the live engine was materialized with
	// (persisted so recovery materializes the checkpoint's engine again);
	// snapBytes is the size of the last snapshot image written or restored
	// (guarded by ckptMu), the next checkpoint's buffer size.
	wal          *persist.WAL
	walGen       uint64
	snapBytes    int
	commitTicket uint64
	walBroken    atomic.Bool
	ckptMu       sync.Mutex
	replaying    bool
	recovered    bool
	engineSeed   int64

	// Degraded-mode health machine + background WAL repair; see
	// health.go. health holds a HealthState; the repair* fields
	// coordinate the self-healing checkpoint loop (repairMu guards
	// repairActive/repairCancel/repairClosed; the counters are
	// read lock-free by Health()).
	health         atomic.Int32
	repairMu       sync.Mutex
	repairActive   bool
	repairClosed   bool
	repairCancel   context.CancelFunc
	repairWG       sync.WaitGroup
	repairAttempts atomic.Uint64
	repairFailures atomic.Uint64
	autoRepairs    atomic.Uint64

	epoch atomic.Uint64
	snap  atomic.Pointer[Snapshot]
	// skel is the skeleton of the last committed grounding — published or
	// not — which the next update's is derived from, and unpublished what
	// the skeletons since the last publication changed (an update cancelled
	// after its commit leaves its share here for the next one to publish).
	skel        *skeleton
	unpublished changeSet

	// Publication broadcast for subscribers (see Published): pubCh is
	// closed by every snapshot publication and lazily re-armed by the next
	// Published call. Nil when nobody is waiting — publishing then costs
	// one mutex acquisition and no allocation.
	pubMu sync.Mutex
	pubCh chan struct{}

	queueOnce sync.Once
	queue     *UpdateQueue

	// holdFinish, when set, runs before every finish stage starts, under
	// the writer lock: the seam tests use to act between an update's graph
	// commit and its finish. Nil outside tests.
	holdFinish func(ctx context.Context)
	// faultHook, when set, is called at the kill points of the WAL-append and
	// checkpoint paths, and an error aborts the operation there: the crash
	// tests' injector. Nil outside tests.
	faultHook faultHook
}

// OpenKB parses and validates a DeepDive program and returns a serving
// handle over it. The KB starts empty: Load base data, then Init, Learn,
// Infer/Materialize, and serve.
//
// With WithDataDir, OpenKB first attempts recovery: if the directory
// holds a snapshot, the newest valid generation is restored, the WAL
// tail replayed, and the returned KB (Recovered() == true) is already
// materialized and serving — skip Init/Learn/Materialize. Otherwise the
// KB starts empty as usual and durability begins at the first
// Checkpoint.
func OpenKB(source string, opts ...Option) (*KB, error) {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	o.fill()
	if o.DataDir != "" {
		if err := os.MkdirAll(o.DataDir, 0o755); err != nil {
			return nil, err
		}
		kb, err := recoverKB(o)
		if err != nil {
			return nil, err
		}
		if kb != nil {
			return kb, nil
		}
	}
	prog, err := datalog.Parse(source)
	if err != nil {
		return nil, err
	}
	udfs := ground.UDFRegistry{}
	for name, f := range o.UDFs {
		udfs[name] = f
	}
	g, err := ground.New(prog, udfs)
	if err != nil {
		return nil, err
	}
	kb := &KB{opts: o, grounder: g}
	kb.snap.Store(emptySnapshot())
	return kb, nil
}

// Snapshot returns the latest published view of the knowledge base. The
// call is a single atomic pointer load — no locks, safe from any number
// of goroutines concurrently with writers. The returned Snapshot is
// immutable; hold it for as many queries as need one consistent view.
func (kb *KB) Snapshot() *Snapshot { return kb.snap.Load() }

// Published returns a channel closed at the next snapshot publication —
// the epoch-notification hook push subscribers are built on. The
// intended loop acquires the channel *before* reading the snapshot, so a
// publication landing between the two is never missed:
//
//	for {
//		ch := kb.Published()
//		snap := kb.Snapshot()
//		... diff snap against the last view served ...
//		select {
//		case <-ch: // a newer snapshot exists; loop
//		case <-ctx.Done():
//			return
//		}
//	}
//
// Waiters only ever block on the returned channel, never inside the
// publish path: publishing closes the armed channel under a dedicated
// mutex and carries on, so a stalled subscriber can never delay a
// publication.
func (kb *KB) Published() <-chan struct{} {
	kb.pubMu.Lock()
	defer kb.pubMu.Unlock()
	if kb.pubCh == nil {
		kb.pubCh = make(chan struct{})
	}
	return kb.pubCh
}

// notifyPublish wakes every Published waiter. Called after the snapshot
// pointer swap, so a woken waiter always observes the new (or an even
// newer) snapshot.
func (kb *KB) notifyPublish() {
	kb.pubMu.Lock()
	if kb.pubCh != nil {
		close(kb.pubCh)
		kb.pubCh = nil
	}
	kb.pubMu.Unlock()
}

// Load stages base tuples for a base relation as inserts of Init's
// grounding — the KB's first update — so they become visible to Relation,
// and an evidence relation's tuples supervise their facts, at Init; the
// tuples must not be modified until then. Call before Init; use Apply (or
// the update queue) for changes afterwards.
func (kb *KB) Load(relation string, tuples []Tuple) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.inited {
		return fmt.Errorf("deepdive: Load after Init; use Apply for incremental data")
	}
	return kb.grounder.LoadBase(relation, tuples)
}

// Init performs the initial grounding (candidate generation, feature
// extraction, supervision, factor-graph construction) and publishes the
// first snapshot (evidence-only until inference runs). The grounding is
// the KB's first update, from the empty database, with the loaded tuples
// as its inserts: it runs the delta path every later update runs (sharded
// under WithParallelism), and its snapshot skeleton is derived from the
// empty one. Init runs once; a second call is refused.
func (kb *KB) Init(ctx context.Context) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if kb.inited {
		return fmt.Errorf("deepdive: Init of an initialized KB; use Apply")
	}
	if err := kb.grounder.Ground(); err != nil {
		return err
	}
	kb.inited = true
	kb.publishLocked()
	return nil
}

// frozen returns the non-learnable weight mask.
func (kb *KB) frozen(g *factor.Graph) []bool {
	mask := make([]bool, g.NumWeights())
	for i := range mask {
		mask[i] = true
	}
	for _, w := range kb.grounder.LearnableWeights() {
		mask[w] = false
	}
	return mask
}

// runtime derives the Gibbs chain-selection config from the options — the
// one place they turn into a gibbs.Runtime, for learning, inference and
// materialization alike.
func (kb *KB) runtime() gibbs.Runtime {
	return gibbs.Runtime{Workers: kb.opts.Parallelism, Replicas: kb.opts.Replicas, SyncEvery: kb.opts.SyncEvery}
}

// engineOpts derives the incremental-engine configuration — shared by
// Materialize and the finish stage's refill so a refilled engine behaves
// identically to an explicitly materialized one. The measured
// §3.2 optimizer and cumulative change tracking are on unless the
// StaticOptimizer lesion reverts to the pre-autopilot behavior.
func (kb *KB) engineOpts(seed int64) inc.Options {
	l := kb.opts.Lesions
	return inc.Options{
		MaterializationSamples: kb.opts.MatSamples,
		Burnin:                 kb.opts.InferBurnin,
		KeepSamples:            kb.opts.InferKeep,
		Lambda:                 kb.opts.Lambda,
		Runtime:                kb.runtime(),
		Seed:                   seed,
		MeasuredOptimizer:      !l.StaticOptimizer,
		CumulativeChanges:      !l.StaticOptimizer,
		DisableSampling:        l.NoSampling,
		DisableVariational:     l.NoVariational,
		IgnoreWorkload:         l.NoWorkloadInfo,
	}
}

// Learn fits rule weights from scratch (tied weights start at zero;
// fixed weights stay fixed), WithLearning's epochs of SGD on the gradient of
// log Pr[E]. The gradient is a sum over the connected components of the
// graph with its evidence released, and a component without evidence adds
// nothing, so only the evidence-bearing ones are visited: each small enough
// to enumerate within the budget a pair of Gibbs chains would sweep is
// compiled once into tables of its worlds' statistics and its part of every
// step is exact (the seed and the runtime do not move it); Gibbs chains on
// WithParallelism/WithReplicas's runtime sample the others only.
// Stats().Learned on the published snapshot says which way the components
// went. Cancellation via ctx returns promptly with the context's error; the
// weights of the last completed gradient step remain installed (a coherent,
// partially trained model) and, on a materialized KB, their drift reaches
// the next update, but no new snapshot is published.
func (kb *KB) Learn(ctx context.Context) (time.Duration, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	start := time.Now()
	g := kb.grounder.Graph()
	warm := append([]float64(nil), g.Weights()...)
	for _, w := range kb.grounder.LearnableWeights() {
		warm[w] = 0
	}
	res, err := learn.TrainCtx(ctx, g, learn.Options{
		Epochs:    kb.opts.LearnEpochs,
		StepSize:  kb.opts.LearnStep,
		Runtime:   kb.runtime(),
		Seed:      kb.opts.Seed + 1,
		Warmstart: warm,
		Frozen:    kb.frozen(g),
	})
	if kb.engine != nil {
		// The engine still materializes the old weights: carry the drift —
		// a cancelled run's too, whose last completed step stays installed —
		// so the next update scores it and covers the graph.
		all := make([]bool, g.NumWeights())
		for w := range all {
			all[w] = true
		}
		drift, _ := weightChanges(kb.engine, g, all)
		kb.pending = kb.pending.Merge(drift)
	}
	if err != nil {
		return time.Since(start), err
	}
	kb.learnSolved = res.Solved
	kb.publishLocked()
	return time.Since(start), nil
}

// Infer computes marginals from scratch on the current graph, stores them
// for every candidate fact, and publishes a snapshot carrying them.
// Conditioned on evidence the graph falls into connected components of its
// free variables; every component small enough to enumerate under the
// budget of WithInference's burnin+keep sweeps gets its exact marginals (no
// sampling noise, the seed does not move them), and Gibbs sampling — keep
// sweeps after burnin, on the chain WithParallelism/WithReplicas select —
// runs on the others only. Stats().Inferred on the published snapshot says
// which way the variables went. Cancellation returns promptly with the
// context's error; the partial estimate is discarded and the previous
// snapshot keeps serving.
func (kb *KB) Infer(ctx context.Context) (time.Duration, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	start := time.Now()
	m, solved := inc.RerunWithCtx(ctx, kb.grounder.Graph(), kb.opts.InferBurnin, kb.opts.InferKeep, kb.opts.Seed+2, kb.runtime())
	if err := ctxErr(ctx); err != nil {
		return time.Since(start), err
	}
	kb.marg, kb.inferSolved = m, solved
	kb.pending = inc.ChangeSet{} // full rerun covered every grounded delta
	kb.publishLocked()
	return time.Since(start), nil
}

// Materialize prepares the incremental-inference engine (sample bundles +
// variational approximation) over the current distribution. Call after
// Learn; afterwards Apply serves changes incrementally. The stored worlds
// are exact independent draws wherever the graph's components can be
// enumerated under the budget of WithMaterialization's samples plus
// WithInference's burnin sweeps — the independent proposals the acceptance
// test assumes — and one world a Gibbs sweep after burnin for the others
// (Stats().Materialized). The call solves the components; when none is left
// to a Gibbs chain, drawing the worlds and fitting the approximation wait
// for the first update that reads them (an update whose dirty components
// all enumerate reads neither), and that read draws the worlds this call
// would have drawn (see inc.NewEngine).
// Materialization is all-or-nothing under cancellation: a cancelled call
// installs no engine and returns the context's error. The change set a
// cancelled update carried stays for the next update to answer for: the new
// Pr(0) holds that delta, but the served marginals do not.
func (kb *KB) Materialize(ctx context.Context) (time.Duration, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	eng, err := inc.NewEngineCtx(ctx, kb.grounder.Graph(), kb.engineOpts(kb.opts.Seed+3))
	if err != nil {
		return 0, err
	}
	kb.engine = eng
	kb.engineSeed = kb.opts.Seed + 3
	kb.publishLocked()
	return eng.MaterializationTime(), nil
}

// Apply applies one increment of the development loop — new rules,
// inserted tuples, deleted tuples — through incremental grounding (DRed),
// warmstart learning when the model changed, and incremental inference
// under the optimizer's strategy choice, then publishes a snapshot with
// the refreshed marginals.
//
// Cancellation semantics: the context is checked before grounding and
// cooperatively during learning and inference. A run cancelled after
// grounding keeps the grounded delta (grounding is not rolled back) but
// publishes no snapshot and refreshes no marginals — readers keep the
// previous consistent view. The cancelled delta's change set is carried
// forward and merged into the next apply's acceptance scoring, so a
// later successful Apply (or a full Infer/Materialize) publishes the
// accumulated state with every grounded factor accounted for.
func (kb *KB) Apply(ctx context.Context, u Update) (*UpdateResult, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	st, err := kb.applyGround(ctx, u)
	if err != nil {
		return nil, err
	}
	return kb.applyFinish(ctx, st)
}

// stagedApply is an update whose grounding stage has committed: the
// graph is patched and the grounding version bumped, but learning,
// inference, and publication have not run. applyFinish completes it.
type stagedApply struct {
	delta  *ground.Delta
	graph  *factor.Graph
	frozen []bool
	// seeds are the variables the delta touched (see deltaSeeds); carried
	// reports that an earlier update's delta committed without publishing,
	// so this finish answers for more than its own delta.
	seeds   []factor.VarID
	carried bool
	// skel is the committed grounding's snapshot skeleton, changed what it
	// changes against the last published one (see nextSkeleton).
	skel    *skeleton
	changed changeSet
	res     *UpdateResult
	// walErr records a durability failure (or an injected crash) on this
	// update's write-ahead append: the commit stands, but applyFinish
	// fails the update without publishing and the delta carries in
	// pending, exactly like a cancellation.
	walErr error
}

// applyGround runs the grounding stage of an apply: DRed delta evaluation,
// the write-ahead append, then the graph commit, pending-change-set merge,
// and snapshot skeleton. Callers hold mu.
func (kb *KB) applyGround(ctx context.Context, u Update) (*stagedApply, error) {
	if !kb.inited {
		return nil, fmt.Errorf("deepdive: Apply before Init")
	}
	if kb.engine == nil {
		return nil, fmt.Errorf("deepdive: Apply before Materialize")
	}
	// Fail fast while the durable chain is broken — before delta
	// evaluation, so a refused update leaves no unacknowledged mutation
	// in the grounder tables (the mid-append failure below has no such
	// luxury: by then evaluation has already run).
	if kb.wal != nil && !kb.replaying && kb.walBroken.Load() {
		if HealthState(kb.health.Load()) == ReadOnly {
			return nil, ErrReadOnly
		}
		return nil, ErrDurabilitySuspended
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var rules []*datalog.Rule
	if u.RuleSource != "" {
		var err error
		if rules, err = datalog.ParseRules(kb.grounder.Program(), u.RuleSource); err != nil {
			return nil, err
		}
	}
	res := &UpdateResult{}

	start := time.Now()
	delta, commit, err := kb.grounder.ApplyUpdateStaged(ground.Update{
		NewRules: rules,
		Inserts:  u.Inserts,
		Deletes:  u.Deletes,
	})
	if err != nil {
		return nil, err
	}
	// The delta is fully evaluated; no error returns beyond this point.
	st := &stagedApply{delta: delta, res: res}

	// Write-ahead: once a durable log is active, the record describing
	// this commit must be on disk before the commit happens — recovery
	// replays the logged tail over the last snapshot, so a committed but
	// unlogged mutation would silently diverge the durable chain. A failed
	// append latches walBroken: the in-memory commit still proceeds (the
	// grounder tables are already mutated and must stay consistent), but
	// this and every later update reports a durability error until a
	// Checkpoint writes a fresh snapshot and rotates to a complete segment.
	if kb.wal != nil && !kb.replaying {
		payload := encodeUpdate(&u)
		if h := kb.faultHook; h != nil {
			st.walErr = h(faultWALAppend)
		}
		if st.walErr == nil {
			st.walErr = kb.wal.Append(kb.commitTicket+1, payload)
		}
		if st.walErr != nil {
			kb.noteWALBroken()
			// Wrap so the triggering update's error matches the
			// suspended-durability class too (errors.Is compatible),
			// while keeping the underlying append failure visible.
			st.walErr = fmt.Errorf("%w: %w", ErrDurabilitySuspended, st.walErr)
		} else {
			kb.commitTicket++
			if h := kb.faultHook; h != nil {
				// The record is durable; an abort past this point
				// loses only the publication, which replay completes.
				st.walErr = h(faultWALAppended)
			}
		}
	}
	// commit patches the graph in place, and only the pre-update graph
	// sees the groundings the delta removes: list their variables first.
	removed := groupVars(nil, kb.curGraph, delta.ModifiedGroups)
	commit()
	st.graph = kb.grounder.Graph()
	kb.curGraph = st.graph
	st.seeds = deltaSeeds(delta, removed, st.graph)
	st.carried = !kb.pending.Empty()
	// The grounded delta is now committed. Fold it into the pending
	// change set immediately: if this update's learning or inference is
	// cancelled, the next apply scores this delta's groups too instead of
	// silently dropping their energy from the acceptance test.
	kb.pending = kb.pending.Merge(inc.FromDelta(delta))
	st.frozen = kb.frozen(st.graph)
	var step changeSet
	kb.skel, step = kb.nextSkeleton(kb.skel, st.graph, delta)
	kb.unpublished.full = kb.unpublished.full || step.full
	kb.unpublished.vars = append(kb.unpublished.vars, step.vars...)
	st.skel, st.changed = kb.skel, kb.unpublished

	res.GroundTime = time.Since(start)
	res.NewVars = len(delta.NewVars)
	res.NewFactors = len(delta.AddedGroups)
	return st, nil
}

// deltaSeeds lists the variables a committed delta touched: the new
// ones, those whose evidence changed, and every variable of a modified or
// added group — read off the committed graph g, plus pre, those of the
// modified groups on the pre-update graph (which alone saw the groundings
// the update removed). The finish stage grows its scopes outward from
// them. Duplicates are harmless.
func deltaSeeds(d *ground.Delta, pre []factor.VarID, g *factor.Graph) []factor.VarID {
	seeds := append(slices.Clone(d.NewVars), d.EvidenceChanged...)
	seeds = append(seeds, pre...)
	seeds = groupVars(seeds, g, d.ModifiedGroups)
	return groupVars(seeds, g, d.AddedGroups)
}

// groupVars appends the variables of g's groups gis to vs.
func groupVars(vs []factor.VarID, g *factor.Graph, gis []int) []factor.VarID {
	for _, gi := range gis {
		g.GroupVars(int32(gi), func(v factor.VarID) { vs = append(vs, v) })
	}
	return vs
}

// applyFinish runs the finish stage of an apply — warmstart learning when
// the model changed, inference (every dirty component that enumerates
// solved exactly, the optimizer's strategy on the rest: see
// inc.Engine.AutoInferCtx), a store refill when that strategy drew the
// store below the low-water mark (see refill), snapshot publication.
// Callers hold mu.
//
// Both stages run on their own scope, not on the graph: connected
// components grown outward from the delta's seed variables in O(|scope|) —
// the evidence-bearing ones for learning (learnDelta), the free-variable
// ones for inference (inc.Engine.Scope). The likelihood and the posterior
// factorise over components, so learning on the induced subgraph and
// re-estimating only the dirty variables is what the whole-graph
// computation would have produced for them, and everything else keeps its
// weights and published marginals bit for bit. A scope beyond half the
// graph's variables is the graph: no subgraph is extracted (and when the
// delta's distinct free seeds alone pass half, the inference scope is not
// grown first: freeBeyondHalf). So is the
// scope of an update that answers for a carried delta, and every scope
// under the GlobalFinish lesion.
func (kb *KB) applyFinish(ctx context.Context, st *stagedApply) (*UpdateResult, error) {
	if kb.holdFinish != nil {
		kb.holdFinish(ctx)
	}
	if st.walErr != nil {
		return nil, st.walErr
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	res, delta, g := st.res, st.delta, st.graph
	scoped := !kb.opts.Lesions.GlobalFinish && !st.carried
	var moved []bool
	if delta.StructureChanged() || delta.HasEvidenceChange() {
		var err error
		if moved, err = kb.learnDelta(ctx, st, scoped); err != nil {
			return nil, err
		}
	}

	// Score the accumulated set; weight drift is recomputed against the
	// current weights on every attempt, so it is not folded into pending.
	drift, touched := weightChanges(kb.engine, g, moved)
	cs := kb.pending.Merge(drift)

	// The dirty set: the delta's components plus those of every group
	// whose weight this update moved. Without published marginals to keep,
	// or without the decomposition, it is the graph.
	var dirty *factor.Reach
	if scoped && kb.marg != nil && !kb.opts.Lesions.NoDecomposition {
		seeds := append(st.seeds, touched...)
		if !freeBeyondHalf(seeds, g) {
			if dirty = kb.engine.Scope(g, seeds, delta.EvidenceChanged); beyondHalf(dirty, g) {
				dirty = nil
			}
		}
	}
	start := time.Now()
	ir := kb.engine.AutoInferCtx(ctx, g, cs, dirty, !kb.opts.Lesions.NoDecomposition)
	res.InferTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	res.Strategy = ir.Strategy
	res.Acceptance = ir.AcceptanceRate
	res.Probe = ir.Probed
	res.SweptVars = ir.Solved.Swept
	kb.recordAutoResult(ir)
	// What this publication changes: the skeleton's structural changes and
	// the re-estimated variables, or everything when the marginal vector is
	// replaced.
	pub, marg := st.changed, ir.Marginals
	if dirty == nil {
		res.DirtyVars = g.NumVars()
		pub = changeSet{full: true}
	} else {
		res.DirtyVars = len(dirty.Vars)
		// Readers share the published vector: merge into a copy (the one
		// per-update cost that still follows the number of variables, eight
		// pointer-free bytes each).
		marg = make([]float64, g.NumVars())
		copy(marg, kb.marg)
		for i, v := range dirty.Vars { // sorted by AutoInferCtx: ir.Marginals follows it
			marg[v] = ir.Marginals[i]
		}
		pub.vars = append(pub.vars, dirty.Vars...)
	}
	// With the store drawn below the low-water mark by this update's
	// inference, re-materialize before publishing; the fresh store's means
	// replace every marginal.
	refilled, err := kb.refill(ctx, g)
	if err != nil {
		return nil, err
	}
	if refilled {
		marg, pub = kb.engine.Store().Means(), changeSet{full: true}
	}
	kb.marg = marg
	kb.pending = inc.ChangeSet{} // published: nothing carries over
	res.Epoch = kb.publishStaged(st.skel, pub).Epoch()
	return res, nil
}

// beyondHalf is the rule that turns a scope into the graph: past half
// the variables, extracting a subgraph saves nothing worth its cost.
func beyondHalf(r *factor.Reach, g *factor.Graph) bool { return 2*len(r.Vars) > g.NumVars() }

// freeBeyondHalf reports whether the distinct free variables among seeds
// already pass half of g's: the inference scope grown from them holds every
// one, so beyondHalf would turn it into the graph, and growing it first —
// a walk of most of the graph on a whole-rule update — can be skipped.
func freeBeyondHalf(seeds []factor.VarID, g *factor.Graph) bool {
	if 2*len(seeds) <= g.NumVars() {
		return false
	}
	seen, n := make([]uint64, (g.NumVars()+63)/64), 0
	for _, v := range seeds {
		if bit := uint64(1) << (v & 63); !g.IsEvidence(v) && seen[v>>6]&bit == 0 {
			seen[v>>6] |= bit
			if n++; 2*n > g.NumVars() {
				return true
			}
		}
	}
	return false
}

// incLearnEpochs is the epochs of warmstart learning an update runs.
const incLearnEpochs = 3

// learnDelta is the finish stage's warmstart learning: incLearnEpochs of
// SGD from the current weights, on the subgraph and the weights the delta
// can inform. log Pr[E] is a sum over the connected components of the
// evidence-released graph, a query-only component contributes exactly
// zero gradient, and a delta changes only the terms of the components it
// touches. So with W_R the learnable weights grounded in the delta's
// components whose term changed (those holding evidence, or a variable
// that just gained or lost it), training W_R on those components plus
// every evidence-bearing component holding a group tied to W_R follows
// the exact gradient for those coordinates; every other weight stays as
// it was. With no such component there is nothing to learn. The size of
// that learning scope decides, not the delta's: a rule that grounds on
// every candidate still learns on the evidence-bearing components alone.
// Unscoped (GlobalFinish, a carried delta), or with a learning scope beyond
// half the graph, every learnable weight trains on the graph itself. It
// returns the mask of weights whose value changed.
func (kb *KB) learnDelta(ctx context.Context, st *stagedApply, scoped bool) ([]bool, error) {
	g := st.graph
	target, frozen := g, st.frozen
	if scoped {
		// The delta's components whose likelihood term it changed: those
		// holding evidence, or a variable that just gained or lost it.
		lr := g.NewReach(false)
		for _, v := range st.delta.EvidenceChanged {
			lr.Grow(v, false)
		}
		for _, v := range st.seeds {
			lr.Grow(v, true)
		}
		if len(lr.Vars) == 0 {
			return nil, nil
		}
		frozen = make([]bool, g.NumWeights())
		for w := range frozen {
			frozen[w] = true
		}
		var adj []int32
		for _, v := range lr.Vars {
			adj = g.AppendAdjacentGroups(adj[:0], v)
			for _, gi := range adj {
				w := g.GroupWeight(int(gi))
				frozen[w] = st.frozen[w]
			}
		}
		for gi := 0; gi < g.NumGroups(); gi++ {
			if !frozen[g.GroupWeight(gi)] {
				lr.Grow(g.GroupHead(gi), true)
			}
		}
		if beyondHalf(lr, g) {
			frozen = st.frozen
		} else {
			target, _ = g.Induced(lr.Sorted())
		}
	}
	before := slices.Clone(g.Weights())
	start := time.Now()
	_, err := learn.TrainCtx(ctx, target, learn.Options{
		Epochs:    incLearnEpochs,
		StepSize:  kb.opts.LearnStep,
		Runtime:   kb.runtime(),
		Seed:      kb.opts.Seed + 5,
		Warmstart: before,
		Frozen:    frozen,
	})
	moved := make([]bool, len(before))
	for w := range before {
		if target != g && !frozen[w] {
			g.SetWeight(factor.WeightID(w), target.Weight(factor.WeightID(w)))
		}
		moved[w] = g.Weight(factor.WeightID(w)) != before[w]
		if !frozen[w] {
			st.res.LearnedWeights++
		}
	}
	st.res.LearnTime = time.Since(start)
	st.res.ScopeVars = target.NumVars()
	return moved, err
}

// Updates returns the KB's asynchronous update queue, starting it on
// first use. See UpdateQueue.
func (kb *KB) Updates() *UpdateQueue {
	kb.queueOnce.Do(func() {
		kb.queue = newUpdateQueue(kb)
	})
	return kb.queue
}

// Close shuts the update queue down (draining already-submitted updates)
// and leaves the KB serving its last published snapshot. Any background
// WAL repair is cancelled and waited out — after Close returns no KB
// goroutine is left running. Reads stay valid after Close; further
// writes are the caller's responsibility to stop. Close is idempotent and
// safe against a concurrent first Updates() call: it resolves the queue
// through the same once, so an update submitted before Close is always
// drained.
func (kb *KB) Close() error {
	kb.Updates().Close()
	kb.shutdownRepair()
	return kb.closeWAL()
}

// closeWAL releases the active write-ahead segment. Further applies on
// a closed KB are the caller's responsibility to stop (as with any
// post-Close write).
func (kb *KB) closeWAL() error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.wal == nil {
		return nil
	}
	err := kb.wal.Close()
	kb.wal = nil
	return err
}

// CloseNow is Close without draining: queued updates that have not
// started resolve with ErrQueueClosed, in-flight batches are cancelled
// through the queue's lifecycle context, and any background WAL repair is
// cancelled and waited out.
func (kb *KB) CloseNow() error {
	kb.Updates().CloseNow()
	kb.shutdownRepair()
	return kb.closeWAL()
}

// publishStaged attaches the current marginals, the next publication epoch
// and the publication's change set to a prepared skeleton and swaps the
// result in as the served view. Callers hold mu.
func (kb *KB) publishStaged(sk *skeleton, cs changeSet) *Snapshot {
	s := &Snapshot{skeleton: *sk, marg: kb.marg}
	s.stats.Inferred, s.stats.Learned = kb.inferSolved, kb.learnSolved
	if kb.engine != nil {
		ap := kb.autopilotLocked()
		s.stats.Autopilot = &ap
		s.stats.Materialized = kb.engine.Solved()
	}
	s.epoch = kb.epoch.Add(1)
	cs.epoch = s.epoch
	// The window slides over one backing array, appended to in place: a
	// published snapshot reads only its own stretch of it.
	w := kb.snap.Load().changes
	if len(w) >= changeWindow {
		w = w[len(w)-changeWindow+1:]
	}
	s.changes = append(w, cs)
	kb.unpublished = changeSet{}
	kb.snap.Store(s)
	kb.notifyPublish()
	return s
}

// publishLocked publishes the current grounding and marginals as a change
// to everything — the monolithic writers' path (Init, Learn, Infer,
// Materialize, Checkpoint, restore). Learn, Infer and Materialize change no
// grounding and republish the last committed skeleton. A graph rebuilt
// since (Checkpoint's compaction) steps it over an empty delta, which
// picks up the new graph epoch; with no skeleton yet (Init, a restore) it
// is derived from the empty one. Callers hold mu.
func (kb *KB) publishLocked() *Snapshot {
	if g := kb.grounder.Graph(); kb.skel == nil || g != kb.curGraph {
		kb.curGraph = g
		kb.skel, _ = kb.nextSkeleton(kb.skel, g, &ground.Delta{})
	}
	return kb.publishStaged(kb.skel, changeSet{full: true})
}

// Marginal is shorthand for Snapshot().Marginal — one consistent point
// read. Multi-query consumers should hold a Snapshot instead.
func (kb *KB) Marginal(relation string, t Tuple) (float64, bool) {
	return kb.Snapshot().Marginal(relation, t)
}

// Extractions is shorthand for Snapshot().Extractions.
func (kb *KB) Extractions(relation string, threshold float64) []Extraction {
	return kb.Snapshot().Extractions(relation, threshold)
}

// Candidates is shorthand for Snapshot().Candidates.
func (kb *KB) Candidates(relation string) []Tuple {
	return kb.Snapshot().Candidates(relation)
}

// Stats reports the grounding statistics of the latest snapshot.
func (kb *KB) Stats() GraphStats { return kb.Snapshot().Stats() }

// Weights returns a copy of the current tied-weight vector, indexed by
// weight id (ids are stable; updates append).
func (kb *KB) Weights() []float64 {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.curGraph == nil {
		return nil
	}
	return slices.Clone(kb.curGraph.Weights())
}

// Relation exposes a read-only copy of a database relation's current
// tuples. Unlike snapshot queries this reads the live database (under
// the writer lock): base relations are not part of the served KB view.
func (kb *KB) Relation(name string) []Tuple {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	r := kb.grounder.DB().Relation(name)
	if r == nil {
		return nil
	}
	return r.Tuples()
}

// Program renders the program the KB currently runs: the source it was
// opened on plus the rules every applied update added. A restored KB
// reports the program it was checkpointed with.
func (kb *KB) Program() string {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.grounder.Program().String()
}

// ctxErr returns ctx's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
