package deepdive_test

// The oracle soak harness: a long stream of queued updates runs through
// KB.Updates() against a deliberately undersized sample store, and at
// checkpoints the served marginals of long-lived tracked facts are
// compared against an exact-inference oracle — a full from-scratch Gibbs
// rerun over the KB's current graph and weights (KB.Infer). This pins
// the quality autopilot end to end: the drift regression it fixes is
// exactly "facts touched by early post-materialization updates decay
// toward the uninformed prior once the store exhausts", which only a
// long stream exposes.
//
// Oracle choice: the reference deliberately reuses the current model
// instead of re-learning from scratch. Incremental warmstart learning
// follows its own trajectory toward the full retrain (a learning-side
// approximation pinned elsewhere, see TestEngineInPlaceUpdateMatches-
// Rebuild for graph equivalence); folding it into the oracle would
// conflate learner transients with the inference drift this harness
// exists to catch. "Exact marginals under the model the KB is actually
// serving" is the invariant every incremental inference strategy must
// track.
//
// The stream grows the chain KB (chainMaterialized) one node at a time:
// what the soak pins is the machinery behind the §3.2 optimizer — store
// exhaustion, the rule-4 fallback, cumulative change sets, store refills —
// and only a component past the enumeration bound reaches it. A document
// stream on the spouse KB does not: every component it dirties is solved
// exactly, reads no stored world, and tracks the oracle to the bit.
//
// Three modes:
//   - autopilot: store refills + measured optimizer + cumulative change
//     sets (the default stack). Must track the oracle throughout and
//     refill the store at least once.
//   - cumulative-only: no refill; the store exhausts for good, but
//     cumulative change tracking keeps every post-materialization delta
//     encoded in the variational graph. Must still track the oracle.
//   - static lesion (Lesions.StaticOptimizer): per-update change sets, no
//     refill. Must FAIL the drift bound — this proves the
//     soak detects the regression rather than passing vacuously.
//
// The default stream length keeps CI fast; set SOAK_UPDATES=200 (or run
// `make soak`) for the full acceptance-length soak.

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"deepdive"
)

// soakUpdates returns the stream length: SOAK_UPDATES when set, else the
// short default.
func soakUpdates(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("SOAK_UPDATES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SOAK_UPDATES=%q", s)
		}
		return n
	}
	return 60
}

// soakCheckpoint is one oracle comparison: after `after` applied
// updates, `drift` is the max and `meanDrift` the mean |served − oracle|
// over the tracked facts.
type soakCheckpoint struct {
	after     int
	drift     float64
	meanDrift float64
	auto      deepdive.AutopilotStats
}

// runSoak streams n chain-growing updates through the queue one ticket at
// a time (Submit+Wait, so nothing coalesces and every update runs the full
// ground→learn→infer path, refilling the store when it drains). At each
// checkpoint the served snapshot is frozen, then KB.Infer computes the
// current-model marginals — on the chain, past the enumeration bound, a
// Gibbs estimate — and the drift over the tracked facts (the first ten
// appended nodes — the facts a drifting approximation forgets first) is
// recorded.
func runSoak(t *testing.T, n int, lesions deepdive.Lesions, opts ...deepdive.Option) []soakCheckpoint {
	t.Helper()
	kb := chainMaterialized(t, append([]deepdive.Option{
		deepdive.WithLesions(lesions),
		// Undersized on purpose: the store holds ~3 updates' worth of
		// proposals, so the stream spends most of its life past the
		// materialization boundary.
		deepdive.WithMaterialization(300, 0.01),
		deepdive.WithInference(20, 100),
	}, opts...)...)
	q := kb.Updates()
	ctx := context.Background()

	tracked := 10
	if tracked > n {
		tracked = n
	}
	var nodes []deepdive.Tuple
	for i := 0; i < tracked; i++ {
		nodes = append(nodes, deepdive.Tuple{fmt.Sprint("n", 40+i)})
	}

	every := n / 3
	if every < 1 {
		every = 1
	}
	var cps []soakCheckpoint
	for i := 0; i < n; i++ {
		if _, err := q.Submit(chainGrow(i)).Wait(ctx); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if (i+1)%every == 0 || i == n-1 {
			served := kb.Snapshot()
			auto := kb.Autopilot()
			if _, err := kb.Infer(ctx); err != nil {
				t.Fatalf("oracle inference after update %d: %v", i, err)
			}
			oracle := kb.Snapshot()
			drift, sum := 0.0, 0.0
			for _, p := range nodes {
				got, okG := served.Marginal("On", p)
				want, okO := oracle.Marginal("On", p)
				if !okG || !okO {
					t.Fatalf("checkpoint %d: tracked node %v missing (served=%v oracle=%v)", i+1, p, okG, okO)
				}
				d := math.Abs(got - want)
				sum += d
				if d > drift {
					drift = d
				}
			}
			mean := sum / float64(len(nodes))
			t.Logf("checkpoint %3d updates: drift max %.3f mean %.3f (autopilot: %d sampling / %d variational / %d remat / %d preempted, store %d/%d)",
				i+1, drift, mean, auto.SamplingRuns, auto.VariationalRuns,
				auto.Rematerializations, auto.RematPreempted, auto.StoreRemaining, auto.StoreLen)
			if len(cps) > 0 && cps[len(cps)-1].after == i+1 {
				continue // i == n-1 coincided with a regular checkpoint
			}
			cps = append(cps, soakCheckpoint{after: i + 1, drift: drift, meanDrift: mean, auto: auto})
		}
	}
	return cps
}

// soakTolerance is the per-fact drift bound the autopilot modes must
// satisfy at every checkpoint: it absorbs the sampling noise of the
// 100-world estimates on both sides, while a tracked fact the
// approximation forgot sits at the uninformed ~0.5 — several times this
// far from the exact marginal.
const soakTolerance = 0.25

// soakMeanTolerance bounds the mean drift across the tracked facts. The
// per-fact bound must stay loose against worst-case noise of a single
// 100-world estimate, but noise is independent across facts and averages
// out, while real forgetting hits every early fact at once — so the mean
// separates the two regimes much more sharply (healthy runs sit near
// 0.03–0.06; the static lesion's mean exceeds 0.25).
const soakMeanTolerance = 0.12

// TestSoakAutopilot is the acceptance soak: the full autopilot stack
// must track the exact-inference oracle at every checkpoint, refill the
// store as the stream drains it, and keep the sampling strategy alive past
// the first store exhaustion.
func TestSoakAutopilot(t *testing.T) {
	n := soakUpdates(t)
	cps := runSoak(t, n, deepdive.Lesions{}, deepdive.WithRematerialization(250, 0))
	for _, cp := range cps {
		if cp.drift > soakTolerance {
			t.Errorf("checkpoint %d: drift %.3f exceeds %.2f", cp.after, cp.drift, soakTolerance)
		}
		if cp.meanDrift > soakMeanTolerance {
			t.Errorf("checkpoint %d: mean drift %.3f exceeds %.2f", cp.after, cp.meanDrift, soakMeanTolerance)
		}
	}
	final := cps[len(cps)-1].auto
	if final.Rematerializations < 1 {
		t.Errorf("no refill landed across %d updates: %+v", n, final)
	}
	if final.SamplingRuns == 0 {
		t.Errorf("autopilot never chose sampling: %+v", final)
	}
}

// TestSoakCumulativeOnly is the middle lesion: without re-materialization
// the store exhausts for good and every late update infers variationally,
// but cumulative change tracking keeps all post-materialization deltas
// encoded — tracked facts must not collapse toward the uninformed prior.
func TestSoakCumulativeOnly(t *testing.T) {
	cps := runSoak(t, soakUpdates(t), deepdive.Lesions{})
	for _, cp := range cps {
		if cp.drift > soakTolerance {
			t.Errorf("checkpoint %d: drift %.3f exceeds %.2f", cp.after, cp.drift, soakTolerance)
		}
		if cp.meanDrift > soakMeanTolerance {
			t.Errorf("checkpoint %d: mean drift %.3f exceeds %.2f", cp.after, cp.meanDrift, soakMeanTolerance)
		}
	}
	final := cps[len(cps)-1].auto
	if final.Rematerializations != 0 {
		t.Errorf("re-materialization ran without being configured: %+v", final)
	}
	if final.VariationalRuns == 0 {
		t.Errorf("store never exhausted — the soak is not exercising the post-materialization regime: %+v", final)
	}
}

// TestSoakStaticLesionDrifts proves the harness detects the regression:
// the pre-autopilot configuration (static rules, per-update change sets,
// no re-materialization) must violate both drift bounds once the store
// is gone and the variational graph forgets earlier updates' groups —
// the mean bound in particular, since forgetting is systematic across
// the tracked facts rather than noise on one of them.
func TestSoakStaticLesionDrifts(t *testing.T) {
	cps := runSoak(t, soakUpdates(t), deepdive.Lesions{StaticOptimizer: true})
	worst, worstMean := 0.0, 0.0
	for _, cp := range cps {
		if cp.drift > worst {
			worst = cp.drift
		}
		if cp.meanDrift > worstMean {
			worstMean = cp.meanDrift
		}
	}
	if worst <= soakTolerance {
		t.Fatalf("static lesion stayed within %.2f (worst drift %.3f) — the soak would not catch the drift regression", soakTolerance, worst)
	}
	if worstMean <= soakMeanTolerance {
		t.Fatalf("static lesion mean drift stayed within %.2f (worst %.3f) — the tightened bound would not catch the drift regression", soakMeanTolerance, worstMean)
	}
}
