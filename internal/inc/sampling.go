package inc

import (
	"context"
	"math"
	"math/rand"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// SamplingResult reports the outcome of the sampling (independent
// Metropolis-Hastings) inference phase.
type SamplingResult struct {
	Marginals      []float64
	Accepted       int
	Proposed       int
	Exhausted      bool // ran out of stored samples before collecting keep worlds
	WorldsObserved int
}

// AcceptanceRate returns accepted/proposed (1 when nothing was proposed).
func (r *SamplingResult) AcceptanceRate() float64 {
	if r.Proposed == 0 {
		return 1
	}
	return float64(r.Accepted) / float64(r.Proposed)
}

// SamplingInfer implements the inference phase of the sampling approach
// (Section 3.2.2): stored samples from Pr(0) are proposals for an
// independent Metropolis-Hastings chain targeting Pr(∆). The acceptance
// test evaluates only the changed factors:
//
//	α = min(1, exp(score(I') − score(I)))
//	score(I) = E_newΔ(I) − E_oldΔ(I)
//
// so when the distribution did not change (score ≡ 0) every proposal is
// accepted and inference is nearly free — the paper's A1 case.
//
// New variables (beyond the stored samples' width) are drawn from their
// Gibbs conditionals given each adopted world; evidence variables are
// forced to their (possibly updated) values. The store is consumed from
// its cursor; exhaustion is reported so the optimizer can fall back.
//
// keep < 1 is clamped to 1, and the chain's seed world counts as an
// observation whenever the store exhausts before any proposal is adopted
// or rejected — a one-sample store still yields one observed world
// instead of an all-zero marginal vector.
func SamplingInfer(oldG, newG *factor.Graph, store *gibbs.Store, cs ChangeSet, keep int, seed int64) *SamplingResult {
	return SamplingInferCtx(nil, oldG, newG, store, cs, keep, seed, 0)
}

// SamplingInferCtx is SamplingInfer with a cooperative cancellation check
// between proposals and with the per-proposal acceptance scoring sharded
// across up to `workers` goroutines (factor.EnergyOfGroupsParallel). The
// Metropolis-Hastings chain itself stays sequential — only each
// proposal's evaluation of the changed groups fans out, which is the
// dominant per-proposal cost when an update touches a large ΔF. workers
// <= 1 keeps the sequential scorer; negative means one per core.
func SamplingInferCtx(ctx context.Context, oldG, newG *factor.Graph, store *gibbs.Store, cs ChangeSet, keep int, seed int64, workers int) *SamplingResult {
	if keep < 1 {
		keep = 1
	}
	// Groups created by post-materialization updates have no old-side
	// energy: they are not part of Pr(0), so a later modification of one
	// appears only on the new side of the score.
	cs.ChangedOld = clampToGraph(oldG, cs.ChangedOld)
	rng := rand.New(rand.NewSource(seed))
	res := &SamplingResult{}
	est := gibbs.NewEstimator(newG.NumVars())

	// Working state over the new graph (handles new vars + new evidence).
	st := factor.NewState(newG)
	sampler := gibbs.FromState(st, seed+1)

	// One unpack buffer and one proposal buffer serve every proposal (the
	// chain state copies what it adopts), and the evidence to force is
	// listed once.
	evidence := evidenceVars(newG)
	raw := make([]bool, store.NumVars())
	full := make([]bool, newG.NumVars())
	propose := func() ([]bool, bool) {
		var ok bool
		if raw, ok = store.Next(raw); !ok {
			return nil, false
		}
		clear(full[copy(full, raw):])
		for _, v := range evidence {
			full[v] = newG.EvidenceValue(v)
		}
		return full, true
	}

	// Old-graph groups reference only old variables, so the (wider) new
	// world scores against both graphs directly.
	score := func(full []bool) float64 {
		if len(cs.ChangedOld) == 0 && len(cs.ChangedNew) == 0 {
			return 0
		}
		return newG.EnergyOfGroupsParallel(full, cs.ChangedNew, workers) -
			oldG.EnergyOfGroupsParallel(full, cs.ChangedOld, workers)
	}

	// Initialize the chain from the first proposal (unconditionally).
	cur, ok := propose()
	if !ok {
		res.Exhausted = true
		res.Marginals = est.Means()
		return res
	}
	st.SetAssignment(cur)
	completeNewVars(sampler, oldG.NumVars())
	curScore := score(st.Assign)

	for est.N() < keep {
		if canceled(ctx) {
			break
		}
		prop, ok := propose()
		if !ok {
			res.Exhausted = true
			break
		}
		res.Proposed++
		// Score the proposal: new vars get conditionals after adoption, so
		// score on the proposal with current new-var values carried over.
		for v := oldG.NumVars(); v < newG.NumVars(); v++ {
			if !newG.IsEvidence(factor.VarID(v)) {
				prop[v] = st.Assign[v]
			}
		}
		propScore := score(prop)
		if propScore >= curScore || rng.Float64() < math.Exp(propScore-curScore) {
			res.Accepted++
			st.SetAssignment(prop)
			completeNewVars(sampler, oldG.NumVars())
			curScore = score(st.Assign)
		}
		est.Observe(st.Assign)
	}
	if est.N() == 0 {
		// The store exhausted right after seeding: the seed world was
		// consumed but never observed, and Means() over zero observations
		// would report every marginal as 0. The seeded chain state is a
		// valid MH state — observe it once.
		est.Observe(st.Assign)
	}
	res.WorldsObserved = est.N()
	res.Marginals = est.Means()
	return res
}

// clampToGraph drops group indexes outside g — groups that did not exist
// when g was materialized. The returned slice aliases groups when nothing
// is dropped.
func clampToGraph(g *factor.Graph, groups []int32) []int32 {
	n := int32(g.NumGroups())
	keep := true
	for _, gi := range groups {
		if gi >= n {
			keep = false
			break
		}
	}
	if keep {
		return groups
	}
	out := make([]int32, 0, len(groups))
	for _, gi := range groups {
		if gi < n {
			out = append(out, gi)
		}
	}
	return out
}

// completeNewVars resamples the variables appended by the update from
// their conditionals given the adopted world.
func completeNewVars(s *gibbs.Sampler, firstNew int) {
	for _, v := range s.FreeVars() {
		if int(v) >= firstNew {
			s.SampleVar(v)
		}
	}
}

// evidenceVars lists g's evidence variables, ascending.
func evidenceVars(g *factor.Graph) []factor.VarID {
	var out []factor.VarID
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) {
			out = append(out, factor.VarID(v))
		}
	}
	return out
}

// EstimateAcceptanceRate scores a random selection of the *unconsumed*
// stored samples against the updated distribution — a cheap probe the
// optimizer can use. Probing is strictly non-consuming: samples are read
// through Store.Bit, so the cursor (and therefore the number of
// proposals a subsequent sampling run can draw) is untouched — a measured
// optimizer that probes before every update must not accelerate store
// exhaustion. Only the unconsumed region is scored because those are the
// proposals an actual sampling pass would replay; an exhausted store
// reports 0 (nothing left to propose, matching the run-time fallback
// rule). probe is clamped to ≥ 1 (a non-positive probe would otherwise
// score nothing and return 0/0 = NaN).
func EstimateAcceptanceRate(oldG, newG *factor.Graph, store *gibbs.Store, cs ChangeSet, probe int, seed int64) float64 {
	remaining := store.Remaining()
	if remaining == 0 {
		return 0
	}
	if probe < 1 {
		probe = 1
	}
	if probe > remaining {
		probe = remaining
	}
	cs.ChangedOld = clampToGraph(oldG, cs.ChangedOld)
	rng := rand.New(rand.NewSource(seed))
	// A score reads the variables of the changed groups and no others: only
	// those columns of a stored world are unpacked (a variable newer than
	// the store reads false, evidence its fixed value).
	var read []factor.VarID
	note := func(v factor.VarID) { read = append(read, v) }
	for _, gi := range cs.ChangedNew {
		newG.GroupVars(gi, note)
	}
	for _, gi := range cs.ChangedOld {
		oldG.GroupVars(gi, note)
	}
	full := make([]bool, newG.NumVars())
	score := func(k int) float64 {
		for _, v := range read {
			switch {
			case newG.IsEvidence(v):
				full[v] = newG.EvidenceValue(v)
			case int(v) < store.NumVars():
				full[v] = store.Bit(store.Len()-remaining+k, int(v))
			}
		}
		return newG.EnergyOfGroups(full, cs.ChangedNew) - oldG.EnergyOfGroups(full, cs.ChangedOld)
	}
	cur := score(rng.Intn(remaining))
	accepted, proposed := 0, 0
	for k := 0; k < probe; k++ {
		s := score(rng.Intn(remaining))
		proposed++
		if s >= cur || rng.Float64() < math.Exp(s-cur) {
			accepted++
			cur = s
		}
	}
	return float64(accepted) / float64(proposed)
}

// NormalizeAcceptance rescales a measured acceptance rate from an
// n-proposal probe into a [0,1] mixing score net of the record-only
// baseline: an independence Metropolis-Hastings chain accepts every
// new-record score unconditionally, so even against a maximally changed
// distribution a probe of n i.i.d. proposals accepts ≈ H(n)/n of them
// (the expected record count of a random sequence). Without the
// correction a short probe can never read "low" — the §3.2 thresholds
// would be dead letters. 1 means every proposal accepted (unchanged
// distribution), 0 means nothing beyond the record floor (proposals are
// rejected wholesale). n ≤ 1 returns the raw rate (the baseline equals
// the whole probe).
func NormalizeAcceptance(rate float64, n int) float64 {
	if n <= 1 {
		return rate
	}
	// H(n) ≈ ln n + γ + 1/(2n).
	h := math.Log(float64(n)) + 0.5772156649 + 1/(2*float64(n))
	base := h / float64(n)
	if base >= 1 {
		return rate
	}
	norm := (rate - base) / (1 - base)
	if norm < 0 {
		return 0
	}
	if norm > 1 {
		return 1
	}
	return norm
}
