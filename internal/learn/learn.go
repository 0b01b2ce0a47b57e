// Package learn implements weight learning for DeepDive factor graphs.
//
// Learning finds the weights that maximize the likelihood of the evidence
// (Section 2.4: "in learning, one finds the set of weights that maximizes
// the probability of the evidence"). The gradient of the log-likelihood
// for a tied weight w_k is
//
//	∂ log Pr[E] / ∂w_k = E_{I ~ Pr(·|E)}[stat_k(I)] − E_{I ~ Pr}[stat_k(I)]
//
// where stat_k(I) = Σ_{γ with weight k} sign(γ,I)·g(n(γ,I)). Both
// expectations factorise over the connected components of the graph with its
// evidence released, and a component holding no evidence contributes exactly
// zero, so the learner works component by component (exact.go): every
// evidence-bearing component small enough to enumerate is compiled once into
// tables of its worlds' statistics, clamped and released, and its part of
// the gradient is read off them exactly at every step — no chain, no seed.
// Only the components past the size bound are estimated with Gibbs chains: a
// clamped chain on the subgraph they induce (evidence fixed) and a free one
// on its copy with evidence released, the contrastive scheme DeepDive and
// Tuffy use for the whole graph.
//
// The package also implements the incremental-learning strategies compared
// in Appendix B.3: stochastic gradient descent with and without warmstart,
// and full gradient descent with warmstart.
package learn

import (
	"context"
	"fmt"
	"math"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/inc"
)

// Method selects the optimizer.
type Method uint8

const (
	// SGD takes BatchSweeps gradient steps per epoch, the remainder's part
	// of each estimated from one sweep pair.
	SGD Method = iota
	// GD takes one gradient step per epoch, the remainder's part averaged
	// over BatchSweeps sweep pairs.
	GD
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case SGD:
		return "sgd"
	case GD:
		return "gd"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Options configures Train. Burnin, Seed and Runtime act on the remainder's
// chain pair only, and BatchSweeps sizes its estimates besides the SGD epoch:
// on a graph whose evidence-bearing components all enumerate no chain runs.
type Options struct {
	Method   Method
	Epochs   int     // optimizer epochs (default 20)
	StepSize float64 // initial learning rate (default 0.1)
	Decay    float64 // multiplicative step decay per epoch (default 0.95)
	L2       float64 // ℓ2 regularization strength (default 1e-4)
	// BatchSweeps is the SGD steps per epoch and the sweep pairs a GD step
	// averages the remainder's statistics over (default 10).
	BatchSweeps int
	Burnin      int // the remainder chains' burn-in sweeps (default 10)
	// Runtime selects the remainder's chains: the sequential sampler, the
	// sharded one, or the replica engine, whose replica-averaged statistics
	// feed the same gradient step on one model.
	Runtime   gibbs.Runtime
	Seed      int64     // the remainder chains' seed
	Warmstart []float64 // initial weights; nil means start from zero
	// Frozen marks weights excluded from learning (fixed-value rule
	// weights). nil means all weights are learnable.
	Frozen []bool

	// TrackLoss, when set, records the evidence loss after every epoch
	// (costs the remainder extra sweeps).
	TrackLoss bool
}

func (o Options) fill() Options {
	if o.Epochs <= 0 {
		o.Epochs = 20
	}
	if o.StepSize <= 0 {
		o.StepSize = 0.1
	}
	if o.Decay <= 0 || o.Decay > 1 {
		o.Decay = 0.95
	}
	if o.L2 < 0 {
		o.L2 = 0
	} else if o.L2 == 0 {
		o.L2 = 1e-4
	}
	if o.BatchSweeps <= 0 {
		o.BatchSweeps = 10
	}
	if o.Burnin < 0 {
		o.Burnin = 0
	} else if o.Burnin == 0 {
		o.Burnin = 10
	}
	return o
}

// Result reports learned weights and optimizer diagnostics.
type Result struct {
	Weights     []float64
	LossByEpoch []float64 // filled when Options.TrackLoss
	Epochs      int
	// Solved says how the gradient came by the evidence-bearing components
	// of the released graph: the variables of those compiled into tables
	// (Closed alone in their component, Enumerated in a larger one), the
	// variables of those left to the chain pair (Swept), and the size of the
	// largest.
	Solved inc.Solved
}

// freeCopy builds a graph identical to g but with every evidence variable
// released, sharing no mutable state with g.
func freeCopy(g *factor.Graph) *factor.Graph {
	b := factor.NewBuilderFrom(g)
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) {
			b.ClearEvidence(factor.VarID(v))
		}
	}
	return b.MustBuild()
}

// Trainer holds the gradient source and the weight vector across updates,
// so incremental learning can continue from a previous state (warmstart).
type Trainer struct {
	plan *plan
	// clamped and free are the remainder's chain pair: on the subgraph the
	// components past the bound induce, and on its copy with evidence
	// released. Both nil when there is no remainder.
	clamped gibbs.Chain
	free    gibbs.Chain
	g       *factor.Graph
	weights []float64
	opt     Options
	ctx     context.Context // cooperative cancellation; nil = never cancel

	statsC []float64
	statsF []float64
}

// NewTrainer compiles the gradient source over g: the tables of the
// evidence-bearing components that enumerate, the chain pair over the
// others. The graph's current weights are overwritten by opt.Warmstart (or
// zeros) first.
func NewTrainer(g *factor.Graph, opt Options) *Trainer {
	return NewTrainerCtx(nil, g, opt)
}

// NewTrainerCtx is NewTrainer with a cooperative cancellation context
// threaded into the compilation and every sweep loop the trainer runs
// (burn-in, gradient estimation). Cancellation never leaves the model
// half-stepped: a gradient step whose sweeps were cut short is discarded,
// so the weight vector always reflects the last completed step.
func NewTrainerCtx(ctx context.Context, g *factor.Graph, opt Options) *Trainer {
	o := opt.fill()
	w := make([]float64, g.NumWeights())
	if o.Warmstart != nil {
		if len(o.Warmstart) != len(w) {
			panic(fmt.Sprintf("learn: warmstart has %d weights, want %d", len(o.Warmstart), len(w)))
		}
		copy(w, o.Warmstart)
	}
	g.SetWeights(w)
	t := &Trainer{
		plan:    newPlan(ctx, g, o.Burnin+o.Epochs*o.BatchSweeps),
		g:       g,
		weights: w,
		opt:     o,
		ctx:     ctx,
	}
	if len(t.plan.rest) > 0 {
		sub, _ := g.Induced(t.plan.rest)
		t.clamped = o.Runtime.NewChain(sub, o.Seed)
		t.free = o.Runtime.NewChain(freeCopy(sub), o.Seed+1)
		t.statsC, t.statsF = make([]float64, len(w)), make([]float64, len(w))
		t.clamped.RandomizeState()
		t.free.RandomizeState()
		t.clamped.RunCtx(ctx, o.Burnin)
		t.free.RunCtx(ctx, o.Burnin)
	}
	return t
}

// canceled reports whether the trainer's context is cancelled.
func (t *Trainer) canceled() bool { return canceled(t.ctx) }

// Weights returns the live weight vector.
func (t *Trainer) Weights() []float64 { return t.weights }

// syncWeights pushes the trainer's weights into the graph and the chains'.
func (t *Trainer) syncWeights() {
	t.g.SetWeights(t.weights)
	if t.clamped != nil {
		t.clamped.Graph().SetWeights(t.weights)
		t.free.Graph().SetWeights(t.weights)
	}
}

// gradient writes the log-likelihood gradient into out: exact for the
// compiled components, estimated from `sweeps` sweeps of each remainder
// chain for the rest. Returns false when cancelled before all sweeps
// completed — the partial estimate must not be applied.
func (t *Trainer) gradient(sweeps int, out []float64) bool {
	if t.canceled() {
		return false
	}
	clear(out)
	t.plan.expect(t.weights, out)
	if t.clamped != nil {
		clear(t.statsC)
		clear(t.statsF)
		for s := 0; s < sweeps; s++ {
			if t.canceled() {
				return false
			}
			t.clamped.Sweep()
			t.clamped.WeightStats(t.statsC)
			t.free.Sweep()
			t.free.WeightStats(t.statsF)
		}
		inv := 1 / float64(sweeps)
		for k := range out {
			out[k] += (t.statsC[k] - t.statsF[k]) * inv
		}
	}
	for k := range out {
		out[k] -= t.opt.L2 * t.weights[k]
	}
	return true
}

// Epoch performs one optimizer epoch and returns the step size used.
// Cancellation mid-epoch abandons the in-flight gradient step; steps
// already applied remain (the weight vector stays a coherent model).
func (t *Trainer) Epoch(epoch int) float64 {
	step := t.opt.StepSize * math.Pow(t.opt.Decay, float64(epoch))
	grad := make([]float64, len(t.weights))
	apply := func() {
		for k := range t.weights {
			if t.opt.Frozen != nil && k < len(t.opt.Frozen) && t.opt.Frozen[k] {
				continue
			}
			t.weights[k] += step * grad[k]
		}
		t.syncWeights()
	}
	switch t.opt.Method {
	case SGD:
		// A handful of steps per epoch, the remainder's part of each from
		// a single sweep pair.
		for s := 0; s < t.opt.BatchSweeps; s++ {
			if !t.gradient(1, grad) {
				return step
			}
			apply()
		}
	case GD:
		if t.gradient(t.opt.BatchSweeps, grad) {
			apply()
		}
	default:
		panic(fmt.Sprintf("learn: unknown method %v", t.opt.Method))
	}
	return step
}

// Loss is the evidence loss of the current weights per evidence variable:
// over the compiled components, exactly −log Pr[E]; over the remainder,
// each evidence variable's negative conditional log-likelihood given the
// rest of the clamped chain's world, averaged over `sweeps` sweeps (see
// EvidenceLoss). Lower is better; 0 is perfect.
func (t *Trainer) Loss(sweeps int) float64 {
	p := t.plan
	if p.evidence == 0 {
		return 0
	}
	nll := -p.expect(t.weights, nil)
	if t.clamped != nil && p.restEvidence > 0 {
		nll += EvidenceLoss(t.clamped.Graph(), t.clamped, sweeps) * float64(p.restEvidence)
	}
	return nll / float64(p.evidence)
}

// Train runs the full optimization and returns the learned weights.
func Train(g *factor.Graph, opt Options) *Result {
	res, _ := TrainCtx(nil, g, opt)
	return res
}

// TrainCtx is Train with a cooperative cancellation check between
// sweeps and between gradient steps. On cancellation it returns the
// context's error alongside the weights of the last completed step —
// a coherent (partially trained) model is installed on g either way.
func TrainCtx(ctx context.Context, g *factor.Graph, opt Options) (*Result, error) {
	t := NewTrainerCtx(ctx, g, opt)
	res := &Result{Epochs: t.opt.Epochs, Solved: t.plan.solved}
	for e := 0; e < t.opt.Epochs; e++ {
		if t.canceled() {
			break
		}
		t.Epoch(e)
		if t.opt.TrackLoss && !t.canceled() {
			res.LossByEpoch = append(res.LossByEpoch, t.Loss(3))
		}
	}
	res.Weights = append([]float64(nil), t.weights...)
	g.SetWeights(res.Weights)
	if ctx != nil {
		return res, ctx.Err()
	}
	return res, nil
}

// EvidenceLoss measures, for the graph's evidence variables, the average
// −log P(v = observed | rest) with the rest of the world drawn by the
// given (clamped) chain. A proxy for the training loss the paper plots
// in Figures 16 and 17.
func EvidenceLoss(g *factor.Graph, s gibbs.Chain, sweeps int) float64 {
	var evs []factor.VarID
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) {
			evs = append(evs, factor.VarID(v))
		}
	}
	if len(evs) == 0 {
		return 0
	}
	var total float64
	var count int
	for k := 0; k < sweeps; k++ {
		s.Sweep()
		for _, v := range evs {
			p := s.CondProb(v)
			if !g.EvidenceValue(v) {
				p = 1 - p
			}
			if p < 1e-12 {
				p = 1e-12
			}
			total += -math.Log(p)
			count++
		}
	}
	return total / float64(count)
}
