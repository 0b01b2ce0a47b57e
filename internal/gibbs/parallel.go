package gibbs

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"deepdive/internal/factor"
)

// ParallelSampler runs Gibbs sweeps with the free variables sharded across
// workers, in the style of DimmWitted's one-worker-per-core engine: every
// worker owns a contiguous range of the free-variable scan order, samples
// it Gauss-Seidel within the shard, and evaluates conditionals directly
// over the graph's flat CSR arrays (no shared support counters to
// contend on). Cross-shard neighbors are read from a snapshot taken at
// sweep start, so workers never observe each other's in-flight writes:
// sweeps are race-free and the chain is bit-for-bit deterministic for a
// fixed (seed, worker count) pair. Each worker draws from its own
// splitmix64-derived rand.Rand.
//
// Contiguous sharding preserves the locality of grounded per-document
// clusters, so only shard-boundary dependencies see one-sweep-stale
// values — the standard Hogwild-style approximation, which leaves
// marginals statistically indistinguishable from the sequential scan on
// sparse KBC graphs.
//
// Each variable's last conditional is memoized in a shard-local cache and
// stays valid until a Markov-blanket neighbor flips (in-shard flips
// invalidate immediately, cross-shard flips at the next snapshot refresh
// — see sweepShard and propagateFlips), so near-convergence sweeps skip
// most adjacency walks. The cache is bitwise transparent: a hit returns
// exactly the float64 a recomputation would produce.
//
// The sampler itself is driven from one goroutine; only its internal
// sweeps fan out.
type ParallelSampler struct {
	driver

	workers int
	shards  [][]factor.VarID // contiguous slices of free
	lo, hi  []int32          // ownership bounds (VarID) per worker
	rngs    []*rand.Rand     // per-worker streams
	master  *rand.Rand       // for RandomizeState and other driver-side draws

	cur  []bool // live assignment; workers write only their own shard
	snap []bool // sweep-start snapshot for cross-shard reads

	// Shard-local conditional cache: cSig[v] holds the sigmoid of v's last
	// conditional, valid while cStamp[v] == stamp. Fills and reads happen
	// only on the owning worker; invalidation is split to stay race-free —
	// a flip invalidates its in-shard blanket neighbors immediately (same
	// worker, Gauss-Seidel visibility), while cross-shard neighbors are
	// invalidated by the driver at the next sweep start (exactly when the
	// refreshed snapshot makes the flip visible to them). Each worker logs
	// its flips into a private row for the driver pass.
	csr    factor.CSR
	cSig   []float64
	cStamp []uint32
	stamp  uint32
	flips  [][]int32 // per-worker flip log of the last sweep
	wgen   uint64    // graph weight generation the cache was filled under
}

// splitmix64 is the SplitMix64 mixer; used to derive independent,
// deterministic per-worker seeds from one master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewParallel creates a parallel sampler over g with workers shards.
// workers <= 0 selects runtime.GOMAXPROCS(0); the worker count is capped
// at the number of free variables.
func NewParallel(g *factor.Graph, workers int, seed int64) *ParallelSampler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParallelSampler{
		master: rand.New(rand.NewSource(seed)),
		cur:    make([]bool, g.NumVars()),
		snap:   make([]bool, g.NumVars()),
		csr:    g.CSR(),
		cSig:   make([]float64, g.NumVars()),
		cStamp: make([]uint32, g.NumVars()),
		stamp:  1,
		wgen:   g.WeightGeneration(),
	}
	p.driver = newDriver(p, g)
	for v := range p.cur {
		p.cur[v] = g.IsEvidence(factor.VarID(v)) && g.EvidenceValue(factor.VarID(v))
	}
	copy(p.snap, p.cur)
	if workers > len(p.free) {
		workers = len(p.free)
	}
	if workers < 1 {
		workers = 1
	}
	p.workers = workers
	p.shards = make([][]factor.VarID, workers)
	p.lo = make([]int32, workers)
	p.hi = make([]int32, workers)
	p.rngs = make([]*rand.Rand, workers)
	p.flips = make([][]int32, workers)
	base, rem := len(p.free)/workers, len(p.free)%workers
	start := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		shard := p.free[start : start+size]
		p.shards[w] = shard
		if len(shard) > 0 {
			p.lo[w] = int32(shard[0])
			p.hi[w] = int32(shard[len(shard)-1])
		} else {
			p.lo[w], p.hi[w] = 1, 0 // empty range
		}
		// Mix the master seed before adding the worker index: chains built
		// from adjacent master seeds (the learner's clamped/free pair, the
		// engine's phase offsets) must not share worker streams, which
		// splitmix64(seed+w) alone would allow.
		p.rngs[w] = rand.New(rand.NewSource(deriveSeed(mixSeed(seed), w)))
		// Flip-log capacity: a variable flips at most once per sweep, so a
		// shard-sized row never reallocates mid-sweep.
		p.flips[w] = make([]int32, 0, size)
		start += size
	}
	return p
}

// Workers returns the number of worker shards.
func (p *ParallelSampler) Workers() int { return p.workers }

// Assign returns the live assignment (read it only between sweeps).
func (p *ParallelSampler) Assign() []bool { return p.cur }

// RandomizeState assigns every free variable uniformly at random from the
// master stream; useful for over-dispersed chain starts.
func (p *ParallelSampler) RandomizeState() {
	for _, v := range p.free {
		p.cur[v] = p.master.Intn(2) == 0
	}
	p.bumpStamp()
	for w := range p.flips {
		p.flips[w] = p.flips[w][:0]
	}
}

// bumpStamp invalidates every cached conditional in O(1).
func (p *ParallelSampler) bumpStamp() {
	p.stamp++
	if p.stamp == 0 { // wrapped: stale stamps could collide, clear them
		for i := range p.cStamp {
			p.cStamp[i] = 0
		}
		p.stamp = 1
	}
}

// propagateFlips is the driver-side half of cache invalidation, run
// between sweeps: every variable that flipped last sweep invalidates its
// full Markov blanket — in particular the cross-shard neighbors no worker
// may touch mid-sweep — exactly when the refreshed snapshot makes those
// flips visible. The walk's total cost is the summed blanket size of the
// sweep's flips, which is bounded by the adjacency work the invalidated
// entries will pay on their next miss anyway — and on KBC graphs the
// frequent flippers are weakly coupled variables with tiny blankets, so
// even mixing-phase sweeps propagate cheaply.
func (p *ParallelSampler) propagateFlips() {
	nbrOff, nbrs := p.csr.NbrOff, p.csr.Nbrs
	cStamp := p.cStamp
	for w := range p.flips {
		for _, v := range p.flips[w] {
			for _, u := range nbrs[nbrOff[v]:nbrOff[v+1]] {
				cStamp[u] = 0
			}
			for _, u := range p.g.ExtraNeighbors(factor.VarID(v)) {
				cStamp[u] = 0
			}
		}
		p.flips[w] = p.flips[w][:0]
	}
}

// sweepShard samples worker w's shard once. Reads of variables inside the
// shard see this sweep's values (Gauss-Seidel); reads of other shards see
// the sweep-start snapshot (factor.EnergyDeltaShard's read rule).
// Conditionals come from the shard-local cache when valid. Writes touch
// only cur[v], cSig[v], cStamp[v], and the flip log for owned v, so
// concurrent shards never race: a flip invalidates its in-shard blanket
// window immediately, and cross-shard invalidation is the driver's
// propagateFlips pass.
func (p *ParallelSampler) sweepShard(w int) {
	g := p.g
	cur, snap := p.cur, p.snap
	lo, hi := p.lo[w], p.hi[w]
	rng := p.rngs[w]
	cSig, cStamp, stamp := p.cSig, p.cStamp, p.stamp
	nbrOff, nbrs := p.csr.NbrOff, p.csr.Nbrs
	flips := p.flips[w][:0]
	for _, v := range p.shards[w] {
		var sig float64
		if cStamp[v] == stamp {
			sig = cSig[v]
		} else {
			delta := g.EnergyDeltaShard(cur, snap, lo, hi, v)
			sig = 1 / (1 + math.Exp(-delta))
			// Overflow-row variables evaluate through patched-in adjacency;
			// conservatively never cache them (they are Δ-sized).
			if g.ExtraAdjacent(v) == nil {
				cSig[v] = sig
				cStamp[v] = stamp
			}
		}
		val := rng.Float64() < sig
		if val != cur[v] {
			cur[v] = val
			flips = append(flips, int32(v))
			// Immediate invalidation of the in-shard blanket window (the
			// frozen row is ascending; overflow entries are range-checked).
			for _, u := range nbrs[nbrOff[v]:nbrOff[v+1]] {
				if u >= lo {
					if u > hi {
						break
					}
					cStamp[u] = 0
				}
			}
			for _, u := range g.ExtraNeighbors(v) {
				if u >= lo && u <= hi {
					cStamp[u] = 0
				}
			}
		}
	}
	p.flips[w] = flips
}

// Sweep performs one full scan over all free variables, fanning the shards
// out across the workers.
func (p *ParallelSampler) Sweep() {
	if len(p.free) == 0 {
		return
	}
	if wg := p.g.WeightGeneration(); wg != p.wgen {
		p.wgen = wg
		p.bumpStamp()
	}
	p.propagateFlips()
	copy(p.snap, p.cur)
	if p.workers == 1 {
		p.sweepShard(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go func(w int) {
			defer wg.Done()
			p.sweepShard(w)
		}(w)
	}
	wg.Wait()
}

// eachWorld yields the live assignment, the chain's one world.
func (p *ParallelSampler) eachWorld(f func([]bool)) { f(p.cur) }

// CondProb returns P(v = true | rest) under the current assignment by
// direct evaluation. Driver-side only (not safe during a Sweep).
func (p *ParallelSampler) CondProb(v factor.VarID) float64 {
	return p.g.CondProbOf(p.cur, v)
}

// WeightStats accumulates the current world's per-weight sufficient
// statistic into out (like State.WeightStats, via direct evaluation).
func (p *ParallelSampler) WeightStats(out []float64) {
	p.g.WeightStatsOf(p.cur, out)
}
