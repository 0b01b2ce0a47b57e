package gibbs

import (
	"math/rand"
	"runtime"
	"sync"

	"deepdive/internal/factor"
)

// DefaultSyncEvery is the default number of sweeps between replica merges.
const DefaultSyncEvery = 8

// mixSeed scrambles a master seed through splitmix64 so that per-stream
// seeds derived by deriveSeed never collide with streams another caller
// derives from an adjacent master seed (engines hand stages seeds like
// seed+1, seed+5, ...).
func mixSeed(seed int64) uint64 { return splitmix64(uint64(seed)) }

// deriveSeed yields the i-th independent stream seed of a mixed master
// seed (the samplers' per-worker derivation rule).
func deriveSeed(mixed uint64, i int) int64 {
	return int64(splitmix64(mixed + uint64(i)))
}

// ReplicaSampler runs Gibbs sweeps in the style of DimmWitted's NUMA-node
// replica engine: every worker owns a *full private copy* of the
// assignment and runs independent Gauss-Seidel sweeps over it — zero
// cross-worker reads or writes during a sweep, where the sharded
// ParallelSampler still shares one assignment array and re-snapshots it
// every sweep. The workers' chains are merged by the driver every
// SyncEvery sweeps:
//
//   - vote: a per-variable majority vote across the replicas refreshes
//     the consensus world, the driver-visible assignment (the role the
//     sweep-start snapshot plays for the sharded sampler);
//   - exchange: the replica worlds rotate one position around the worker
//     ring, so every worker stream keeps continuing a stationary chain
//     (the merge never invents a world, which would bias the samples
//     toward the consensus mode).
//
// Each replica owns a full private factor.State — incrementally
// maintained support counters plus the Markov-blanket conditional cache —
// so a replica sweep costs O(occurrences of v) per variable through the
// fused State.SampleVar kernel instead of a from-scratch walk of every
// adjacent grounding. The exchange rotates the State handles themselves:
// counters and cached conditionals describe the world, so they travel
// with it and stay valid across merges.
//
// A Sweep leaves one exact world per replica, and the shared loop takes
// each: a keep-sweep Marginals run pools keep×R worlds, the replica
// analogue of DimmWitted averaging per-node sample batches, and the store
// gets every replica's world, never the consensus, which would bias it.
//
// Because each worker touches only its own arrays between merges, sweeps
// are race-free and the chain is bit-for-bit deterministic for a fixed
// (seed, replicas, syncEvery) triple. Replicas share one graph — on a
// patch lineage that means one immutable CSR pool backing all workers.
//
// The sampler itself is driven from one goroutine; only its internal
// sweeps fan out.
type ReplicaSampler struct {
	driver

	replicas  int
	syncEvery int
	rngs      []*rand.Rand // per-replica streams
	master    *rand.Rand   // driver-side draws (RandomizeState)

	states []*factor.State // per-replica private worlds + counters + caches
	cons   []bool          // consensus world (majority vote), driver view
	fresh  bool            // cons reflects the current worlds
	since  int             // sweeps since the last merge

	scratch []float64 // WeightStats' per-replica buffer, kept across calls
}

// NewReplica creates a replica sampler over g with the given replica
// count. replicas <= 0 selects runtime.GOMAXPROCS(0); syncEvery <= 0
// selects DefaultSyncEvery.
func NewReplica(g *factor.Graph, replicas, syncEvery int, seed int64) *ReplicaSampler {
	if replicas <= 0 {
		replicas = runtime.GOMAXPROCS(0)
	}
	if replicas < 1 {
		replicas = 1
	}
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	r := &ReplicaSampler{
		replicas:  replicas,
		syncEvery: syncEvery,
		master:    rand.New(rand.NewSource(seed)),
		rngs:      make([]*rand.Rand, replicas),
		states:    make([]*factor.State, replicas),
		cons:      make([]bool, g.NumVars()),
		fresh:     true,
	}
	r.driver = newDriver(r, g)
	for v := range r.cons {
		r.cons[v] = g.IsEvidence(factor.VarID(v)) && g.EvidenceValue(factor.VarID(v))
	}
	base := mixSeed(seed)
	for w := 0; w < replicas; w++ {
		r.states[w] = factor.NewStateWith(g, r.cons)
		// Same double-splitmix derivation as the sharded sampler: chains
		// built from adjacent master seeds must not share worker streams.
		r.rngs[w] = rand.New(rand.NewSource(deriveSeed(base, w)))
	}
	return r
}

// Replicas returns the number of replica workers.
func (r *ReplicaSampler) Replicas() int { return r.replicas }

// SyncEvery returns the merge interval in sweeps.
func (r *ReplicaSampler) SyncEvery() int { return r.syncEvery }

// Assign returns the consensus world: the per-variable majority vote
// across replicas, refreshed lazily between sweeps. Evidence variables
// report their fixed values.
func (r *ReplicaSampler) Assign() []bool {
	if !r.fresh {
		r.vote()
	}
	return r.cons
}

// World returns replica w's private assignment (read between sweeps only;
// shared, not a copy). Unlike the consensus view this is one exact sample
// of the chain.
func (r *ReplicaSampler) World(w int) []bool { return r.states[w].Assign }

// RandomizeState assigns every free variable of every replica uniformly
// at random from the master stream, giving the replicas over-dispersed
// independent starts.
func (r *ReplicaSampler) RandomizeState() {
	for _, st := range r.states {
		world := st.Assign
		for _, v := range r.free {
			world[v] = r.master.Intn(2) == 0
		}
		st.Recount() // rebuild counters, drop cached conditionals
	}
	r.fresh = false
}

// vote refreshes the consensus world by per-variable majority across the
// replicas; ties adopt replica 0's value so the result is deterministic.
func (r *ReplicaSampler) vote() {
	for _, v := range r.free {
		t := 0
		for _, st := range r.states {
			if st.Assign[v] {
				t++
			}
		}
		switch {
		case 2*t > r.replicas:
			r.cons[v] = true
		case 2*t < r.replicas:
			r.cons[v] = false
		default:
			r.cons[v] = r.states[0].Assign[v]
		}
	}
	r.fresh = true
}

// merge is the sync point: vote, then exchange the replica worlds one
// position around the worker ring. The rotation hands every worker
// stream a world sampled by a different replica — cross-replica exchange
// without inventing a world, so every chain stays exactly stationary. The
// whole State rotates (assignment, counters, and cached conditionals
// describe the world, not the worker), so a merge costs R pointer moves
// and invalidates nothing.
func (r *ReplicaSampler) merge() {
	r.vote()
	if r.replicas > 1 {
		last := r.states[r.replicas-1]
		copy(r.states[1:], r.states[:r.replicas-1])
		r.states[0] = last
	}
	r.since = 0
}

// sweepReplica runs one full Gauss-Seidel scan of replica w's private
// world through the fused State.SampleVar kernel (counter-maintained
// supports, cached conditionals). Reads and writes touch only that
// replica's State, so concurrent replicas never race.
func (r *ReplicaSampler) sweepReplica(w int) {
	st := r.states[w]
	rng := r.rngs[w]
	for _, v := range r.free {
		st.SampleVar(v, rng.Float64())
	}
}

// Sweep advances every replica by one full scan (fanned out across the
// workers) and merges at the sync interval. One Sweep call samples
// NumFree × Replicas variables.
func (r *ReplicaSampler) Sweep() {
	if len(r.free) == 0 {
		return
	}
	if r.replicas == 1 {
		r.sweepReplica(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(r.replicas)
		for w := 0; w < r.replicas; w++ {
			go func(w int) {
				defer wg.Done()
				r.sweepReplica(w)
			}(w)
		}
		wg.Wait()
	}
	r.fresh = false
	r.since++
	if r.since >= r.syncEvery {
		r.merge()
	}
}

// eachWorld yields every replica's current world, in ring order.
func (r *ReplicaSampler) eachWorld(f func([]bool)) {
	for _, st := range r.states {
		f(st.Assign)
	}
}

// CondProb returns P(v = true | rest) under the consensus world by direct
// evaluation. Driver-side only (not safe during a Sweep).
func (r *ReplicaSampler) CondProb(v factor.VarID) float64 {
	return r.g.CondProbOf(r.Assign(), v)
}

// WeightStats accumulates the replica-averaged per-weight sufficient
// statistic into out: each replica's world contributes 1/Replicas of its
// statistic (computed from the replica's maintained support counters — no
// grounding walk), an unbiased lower-variance estimate than any single
// world's. The learner calls it twice per sweep, so the per-replica buffer
// lives on the sampler: a call allocates only when out grows.
func (r *ReplicaSampler) WeightStats(out []float64) {
	if cap(r.scratch) < len(out) {
		r.scratch = make([]float64, len(out))
	}
	scratch := r.scratch[:len(out)]
	inv := 1 / float64(r.replicas)
	for _, rs := range r.states {
		for i := range scratch {
			scratch[i] = 0
		}
		rs.WeightStats(scratch)
		for i, s := range scratch {
			out[i] += s * inv
		}
	}
}
