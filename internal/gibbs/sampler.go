// Package gibbs implements the Gibbs sampling machinery DeepDive uses for
// statistical inference (Section 2.5 of the paper): a sequential scan
// sampler over a factor.Graph, a sharded ParallelSampler and a replica
// ReplicaSampler in the style of the production DimmWitted engine (one
// worker per core over the flat CSR layout), marginal-probability
// estimation, bit-packed sample storage ("tuple bundles", after MCDB), and
// convergence probes used by the semantics experiments of Appendix A. The
// Chain interface abstracts over the three samplers so callers opt into
// parallelism by configuration; the loop they share — running, marginal
// estimation, sample collection — is written once, in chain.go's driver,
// and each runtime supplies only its sweep and the worlds it leaves.
package gibbs

import (
	"math"
	"math/rand"

	"deepdive/internal/factor"
)

// Sampler runs Gibbs sweeps over the free variables of a factor graph.
// It owns a State; callers that need the current world read
// Sampler.State.Assign. Not safe for concurrent use.
type Sampler struct {
	driver
	State *factor.State
	rng   *rand.Rand
}

// New creates a sampler over g with a fresh all-false (plus evidence)
// initial state and a deterministic RNG seeded with seed.
func New(g *factor.Graph, seed int64) *Sampler {
	return FromState(factor.NewState(g), seed)
}

// FromState wraps an existing state. The sampler takes ownership.
func FromState(st *factor.State, seed int64) *Sampler {
	s := &Sampler{State: st, rng: rand.New(rand.NewSource(seed))}
	s.driver = newDriver(s, st.G)
	return s
}

// Assign returns the chain's current world (shared, not a copy).
func (s *Sampler) Assign() []bool { return s.State.Assign }

// CondProb returns P(v = true | rest) under the current world.
func (s *Sampler) CondProb(v factor.VarID) float64 { return s.State.CondProb(v) }

// WeightStats accumulates the current world's per-weight sufficient
// statistic into out, from the state's maintained support counters.
func (s *Sampler) WeightStats(out []float64) { s.State.WeightStats(out) }

// RandomizeState assigns every free variable uniformly at random; useful
// for over-dispersed chain starts.
func (s *Sampler) RandomizeState() {
	for _, v := range s.free {
		s.State.Set(v, s.rng.Intn(2) == 0)
	}
}

// SampleVar resamples a single variable from its conditional through the
// state's fused kernel (cached conditional → decide → apply in one pass).
func (s *Sampler) SampleVar(v factor.VarID) {
	s.State.SampleVar(v, s.rng.Float64())
}

// Sweep performs one full scan over all free variables. The loop body is
// the fused State.SampleVar kernel; the state and RNG headers are hoisted
// so the loop carries no repeated field loads.
func (s *Sampler) Sweep() {
	st, rng := s.State, s.rng
	for _, v := range s.free {
		st.SampleVar(v, rng.Float64())
	}
}

// eachWorld yields the chain's one world.
func (s *Sampler) eachWorld(f func([]bool)) { f(s.State.Assign) }

// Estimator accumulates marginal estimates from observed worlds. It
// observes only the graph's free variables — evidence variables never
// change, so their fixed contribution is filled in once at read time
// instead of being re-counted every sweep.
type Estimator struct {
	counts []float64
	n      int

	// The observe loop walks free, and reads reconstruct evidence entries
	// from ev/evTrue. The reconstruction replays the counting arithmetic
	// (n·(1/n), n/n) so the results are bit-identical to observing every
	// variable.
	free   []factor.VarID
	ev     []bool // per variable: fixed (evidence)
	evTrue []bool // fixed value (meaningful when ev)
}

// NewEstimatorFor returns an estimator over g's variables whose observe
// loop touches only the free variables.
func NewEstimatorFor(g *factor.Graph) *Estimator {
	return newEstimatorOver(g, freeVars(g))
}

// newEstimatorOver is NewEstimatorFor observing only the listed free
// variables — a chain's scan order, all it ever moves.
func newEstimatorOver(g *factor.Graph, free []factor.VarID) *Estimator {
	e := &Estimator{
		counts: make([]float64, g.NumVars()),
		free:   free,
		ev:     make([]bool, g.NumVars()),
		evTrue: make([]bool, g.NumVars()),
	}
	for v := range e.ev {
		id := factor.VarID(v)
		e.ev[v] = g.IsEvidence(id)
		e.evTrue[v] = e.ev[v] && g.EvidenceValue(id)
	}
	return e
}

// Observe adds one world.
func (e *Estimator) Observe(assign []bool) {
	counts := e.counts
	for _, v := range e.free {
		if assign[v] {
			counts[v]++
		}
	}
	e.n++
}

// N returns the number of observed worlds.
func (e *Estimator) N() int { return e.n }

// Mean returns the current estimate of P(v = true).
func (e *Estimator) Mean(v factor.VarID) float64 {
	if e.n == 0 {
		return 0
	}
	if e.ev[v] {
		if e.evTrue[v] {
			return float64(e.n) / float64(e.n) // n/n: what counting would yield
		}
		return 0
	}
	return e.counts[v] / float64(e.n)
}

// Means returns all marginal estimates.
func (e *Estimator) Means() []float64 {
	out := make([]float64, len(e.counts))
	if e.n == 0 {
		return out
	}
	inv := 1 / float64(e.n)
	one := float64(e.n) * inv // n·(1/n): what counting would yield
	for i, c := range e.counts {
		switch {
		case e.ev[i] && e.evTrue[i]:
			out[i] = one
		case e.ev[i]:
			out[i] = 0
		default:
			out[i] = c * inv
		}
	}
	return out
}

// ConvergenceResult reports how many sweeps a chain needed before its
// running marginal estimate of one variable stayed within tol of target.
type ConvergenceResult struct {
	Sweeps    int
	Converged bool
	Estimate  float64
}

// SweepsToConverge runs a fresh chain over g and reports the first sweep
// count at which the running estimate of P(v) is within tol of target and
// remains within tol for `hold` further consecutive sweeps (guarding
// against transient crossings). Used for the Figure 13 reproduction.
func SweepsToConverge(g *factor.Graph, v factor.VarID, target, tol float64, maxSweeps, hold int, seed int64) ConvergenceResult {
	s := New(g, seed)
	s.RandomizeState()
	est := NewEstimatorFor(g)
	within := 0
	for it := 1; it <= maxSweeps; it++ {
		s.Sweep()
		est.Observe(s.State.Assign)
		cur := est.Mean(v)
		if math.Abs(cur-target) <= tol {
			within++
			if within >= hold {
				return ConvergenceResult{Sweeps: it - hold + 1, Converged: true, Estimate: cur}
			}
		} else {
			within = 0
		}
	}
	return ConvergenceResult{Sweeps: maxSweeps, Converged: false, Estimate: est.Mean(v)}
}
