package inc

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// SamplingInferCtx is the inference phase of the sampling approach (Section
// 3.2.2), and the package's one Metropolis-Hastings runner: the stored worlds
// of Pr(0), replayed from the store's cursor, are independent proposals for a
// chain targeting Pr(∆), and the acceptance test scores only the changed
// factors:
//
//	α = min(1, exp(score(I') − score(I)))
//	score(I) = E_newΔ(I) − E_oldΔ(I)
//
// Algorithm 2 (Appendix B.1) splits that test into one per block of
// variables independent of the others given the evidence (blocks, such as
// ComponentGroups): a block the update did not touch adopts every proposal
// outright, acceptance rate 1 and nothing scored, and a touched block runs its
// own test. Free variables in no block share one residual block, so nil blocks
// is the single global test — and when nothing changed every proposal is
// accepted and inference is nearly free, the paper's A1 case.
//
// The chain starts from the all-false world (evidence at its values) and
// observes one world per replayed world until it holds keep (keep < 1 counts
// as 1). Of a block's variables a stored world proposes the stored ones; the
// ones appended since materialization, past the store's width, are drawn from
// their conditionals given each adopted world. The acceptance coin draws from
// seed, that sampler from seed+6. ctx is checked between replayed worlds.
//
// With a nil scope the blocks cover the graph and the run spends the worlds it
// replays. With a scope (sorted; cs and blocks restricted to it) the chain runs
// on the scope's induced subgraph — its state, estimator and result are sized
// by the scope, Result.Marginals[i] belonging to scope[i] — and the run, which
// reads only its own columns of the worlds it replays, spends only that share
// of them (rounded up), so rule 4 and the KB's low-water refill meter the
// stored bits a run used, not the number of runs.
//
// Result.FellBack reports that the store ran out before keep worlds were
// observed; the marginals are then those of the worlds that were. Falling back
// (rule 4) is the caller's: see Engine.inferAs.
func SamplingInferCtx(ctx context.Context, oldG, newG *factor.Graph, store *gibbs.Store, cs ChangeSet, blocks []DecompGroup, scope []factor.VarID, keep int, seed int64) *Result {
	start := time.Now()
	res := &Result{Strategy: StrategySampling, AcceptanceRate: 1, Probed: -1}
	keep = max(keep, 1)
	// Groups created by post-materialization updates are not part of
	// Pr(0); a later modification of one has no old-side energy.
	cs.ChangedOld = clampToGraph(oldG, cs.ChangedOld)

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
	est := gibbs.NewEstimatorFor(target)
	blockOf := make([]int32, len(vars)) // by target id; -1 for evidence
	for l := range blockOf {
		blockOf[l] = -1
	}
	for bi, grp := range blocks {
		for _, v := range grp.Inactive {
			blockOf[localOf(scope, v)] = int32(bi)
		}
	}
	residual := len(blocks)
	nBlocks := residual + 1
	type member struct{ v, l factor.VarID } // one variable: its id in newG, its id in target
	varsByBlock := make([][]member, nBlocks)
	var stored, fresh []member
	for l, v := range vars {
		if newG.IsEvidence(v) {
			continue
		}
		if blockOf[l] == -1 {
			blockOf[l] = int32(residual)
		}
		m := member{v: v, l: factor.VarID(l)}
		varsByBlock[blockOf[l]] = append(varsByBlock[blockOf[l]], m)
		if int(v) < store.NumVars() {
			stored = append(stored, m)
		} else {
			fresh = append(fresh, m)
		}
	}

	// A changed group belongs to the block of its first member in the scope
	// that is free on both graphs (GroupVars reports the head first, then each
	// live grounding's variables in pool order), or to the residual block when
	// it has none.
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
	place(oldG, cs.ChangedOld, changedOldByBlock)

	rng := rand.New(rand.NewSource(seed))
	st := factor.NewState(target)
	sampler := gibbs.FromState(st, seed+6)

	// Old-graph groups reference only old variables, so the (wider) new
	// world can be scored against both graphs directly.
	blockScore := func(world []bool, b int) float64 {
		return newG.EnergyOfGroups(world, changedNewByBlock[b]) -
			oldG.EnergyOfGroups(world, changedOldByBlock[b])
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
	next, used := store.Len()-store.Remaining(), 0
	for est.N() < keep {
		if canceled(ctx) {
			break
		}
		if used == store.Remaining() {
			res.FellBack = true
			break
		}
		for _, m := range stored {
			prop[m.v] = store.Bit(next+used, int(m.v))
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
			if st.Assign[m.l] != was {
				known[blockOf[m.l]] = false
			}
			cur[m.v] = st.Assign[m.l]
			hybrid[m.v] = cur[m.v]
		}
		est.Observe(st.Assign)
	}
	if scope != nil {
		used = (used*len(scope) + n - 1) / n
	}
	store.Skip(used)
	res.Marginals = est.Means()
	if proposed > 0 {
		res.AcceptanceRate = float64(accepted) / float64(proposed)
	}
	res.SamplesUsed = proposed
	res.Elapsed = time.Since(start)
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
