package deepdive_test

import (
	"testing"

	"deepdive"
)

// TestEngineLesionsReachUpdateResult: each of the inference lesions
// changes what the update it targets reports — a new document (a
// structural change the optimizer samples) or new supervision (an
// evidence change the optimizer routes to the variational side).
func TestEngineLesionsReachUpdateResult(t *testing.T) {
	newDoc := docUpdate(1)
	newEvidence := deepdive.Update{Inserts: map[string][]deepdive.Tuple{"Married": {{"Carl", "Dana"}}}}
	apply := func(l deepdive.Lesions, u deepdive.Update) (*deepdive.UpdateResult, int) {
		t.Helper()
		kb := spouseMaterialized(t, deepdive.WithLesions(l))
		res, err := kb.Apply(ctx, u)
		must(t, err)
		return res, kb.Stats().Variables
	}
	global := deepdive.Lesions{GlobalFinish: true}
	for _, tc := range []struct {
		name string
		// common is on for both runs, lesion only for the second.
		common, lesion deepdive.Lesions
		update         deepdive.Update
		// base is the strategy without the lesion, want with it.
		base, want deepdive.Strategy
	}{
		{"NoSampling", deepdive.Lesions{}, deepdive.Lesions{NoSampling: true}, newDoc, deepdive.StrategySampling, deepdive.StrategyVariational},
		{"NoVariational", deepdive.Lesions{}, deepdive.Lesions{NoVariational: true}, newEvidence, deepdive.StrategyVariational, deepdive.StrategySampling},
		{"NoWorkloadInfo", deepdive.Lesions{}, deepdive.Lesions{NoWorkloadInfo: true}, newEvidence, deepdive.StrategyVariational, deepdive.StrategySampling},
		// Re-pinned onto GlobalFinish: the unsupervised document no longer
		// triggers learning, so by default no weight moves, the change set
		// is the document's own component, and one global test is that
		// component's test. With every weight relearned, every component
		// changes and the global test shows.
		{"NoDecomposition", global, deepdive.Lesions{GlobalFinish: true, NoDecomposition: true}, newDoc, deepdive.StrategySampling, deepdive.StrategySampling},
		{"GlobalFinish", deepdive.Lesions{}, global, newDoc, deepdive.StrategySampling, deepdive.StrategySampling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, _ := apply(tc.common, tc.update)
			got, vars := apply(tc.lesion, tc.update)
			if base.Strategy != tc.base || got.Strategy != tc.want {
				t.Fatalf("strategy %v without the lesion (want %v), %v with it (want %v)",
					base.Strategy, tc.base, got.Strategy, tc.want)
			}
			// One global acceptance test rejects where the new document's
			// own component would have accepted.
			if tc.lesion.NoDecomposition && got.Acceptance >= base.Acceptance {
				t.Fatalf("acceptance %.3f with decomposition, %.3f without", base.Acceptance, got.Acceptance)
			}
			// The unsupervised document has nothing to teach: by default
			// learning is skipped, under the lesion it covers the graph.
			if tc.name == "GlobalFinish" {
				if base.ScopeVars != 0 || base.LearnedWeights != 0 || base.LearnTime != 0 {
					t.Fatalf("default finish learned: %+v", base)
				}
				if got.ScopeVars != vars || got.DirtyVars != vars || got.LearnedWeights == 0 || got.LearnTime == 0 {
					t.Fatalf("global finish did not cover the %d-variable graph: %+v", vars, got)
				}
			}
		})
	}
}

// TestZeroLesionsIsTheDefault: WithLesions(Lesions{}) changes nothing,
// bit for bit.
func TestZeroLesionsIsTheDefault(t *testing.T) {
	run := func(opts ...deepdive.Option) map[string]uint64 {
		kb := spouseMaterialized(t, opts...)
		for i := 0; i < 3; i++ {
			_, err := kb.Apply(ctx, docUpdate(i))
			must(t, err)
		}
		return spouseBits(kb)
	}
	assertSameBits(t, run(), run(deepdive.WithLesions(deepdive.Lesions{})), "Lesions{}")
}
