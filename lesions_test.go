package deepdive_test

import (
	"testing"

	"deepdive"
)

// TestEngineLesionsReachUpdateResult: each of the inference lesions
// changes what the update it targets reports. The strategy lesions act on
// an update's remainder, the components past the enumeration bound, so
// they are pinned on the chain KB: a node appended to the chain (a
// structural change the optimizer samples) or a node labelled (an
// evidence change the optimizer routes to the variational side; it cuts
// off five nodes, which are solved exactly either way). NoDecomposition
// and GlobalFinish are pinned on the spouse KB, whose every component
// enumerates: with the decomposition an update is solved exactly, without
// it one global acceptance test runs.
func TestEngineLesionsReachUpdateResult(t *testing.T) {
	newDoc := docUpdate(1)
	newNode := chainGrow(0)
	newLabel := deepdive.Update{Inserts: map[string][]deepdive.Tuple{"Seed": {{"n5"}}}}
	spouse := func(t *testing.T, l deepdive.Lesions) *deepdive.KB {
		return spouseMaterialized(t, deepdive.WithLesions(l))
	}
	chain := func(t *testing.T, l deepdive.Lesions) *deepdive.KB {
		return chainMaterialized(t, deepdive.WithLesions(l))
	}
	global := deepdive.Lesions{GlobalFinish: true}
	for _, tc := range []struct {
		name string
		kb   func(*testing.T, deepdive.Lesions) *deepdive.KB
		// common is on for both runs, lesion only for the second.
		common, lesion deepdive.Lesions
		update         deepdive.Update
		// base is the strategy without the lesion, want with it.
		base, want deepdive.Strategy
	}{
		{"NoSampling", chain, deepdive.Lesions{}, deepdive.Lesions{NoSampling: true}, newNode, deepdive.StrategySampling, deepdive.StrategyVariational},
		{"NoVariational", chain, deepdive.Lesions{}, deepdive.Lesions{NoVariational: true}, newLabel, deepdive.StrategyVariational, deepdive.StrategySampling},
		{"NoWorkloadInfo", chain, deepdive.Lesions{}, deepdive.Lesions{NoWorkloadInfo: true}, newLabel, deepdive.StrategyVariational, deepdive.StrategySampling},
		// On GlobalFinish, where every weight is relearned and every
		// component changes, one global test shows.
		{"NoDecomposition", spouse, global, deepdive.Lesions{GlobalFinish: true, NoDecomposition: true}, newDoc, deepdive.StrategyExact, deepdive.StrategySampling},
		{"GlobalFinish", spouse, deepdive.Lesions{}, global, newDoc, deepdive.StrategyExact, deepdive.StrategyExact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apply := func(l deepdive.Lesions) (*deepdive.UpdateResult, int) {
				t.Helper()
				kb := tc.kb(t, l)
				res, err := kb.Apply(ctx, tc.update)
				must(t, err)
				return res, kb.Stats().Variables
			}
			base, _ := apply(tc.common)
			got, vars := apply(tc.lesion)
			if base.Strategy != tc.base || got.Strategy != tc.want {
				t.Fatalf("strategy %v without the lesion (want %v), %v with it (want %v)",
					base.Strategy, tc.base, got.Strategy, tc.want)
			}
			// The strategy lesions leave the exact solve alone: the chain is
			// the remainder either way, the five labelled-off nodes are not.
			if tc.update.Inserts["Seed"] != nil && (base.SweptVars != 34 || got.SweptVars != 34) {
				t.Fatalf("swept %d variables without the lesion, %d with it, want the 34 nodes past the label", base.SweptVars, got.SweptVars)
			}
			// One global acceptance test rejects where the decomposition,
			// solving each component exactly, accepts everything.
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
