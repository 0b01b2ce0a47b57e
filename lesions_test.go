package deepdive_test

import (
	"testing"

	"deepdive"
)

// TestEngineLesionsReachUpdateResult: each of the four inference lesions
// changes what the update it targets reports — a new document (a
// structural change the optimizer samples) or new supervision (an
// evidence change the optimizer routes to the variational side).
func TestEngineLesionsReachUpdateResult(t *testing.T) {
	newDoc := docUpdate(1)
	newEvidence := deepdive.Update{Inserts: map[string][]deepdive.Tuple{"Married": {{"Carl", "Dana"}}}}
	apply := func(l deepdive.Lesions, u deepdive.Update) *deepdive.UpdateResult {
		t.Helper()
		res, err := spouseMaterialized(t, deepdive.WithLesions(l)).Apply(ctx, u)
		must(t, err)
		return res
	}
	for _, tc := range []struct {
		name   string
		lesion deepdive.Lesions
		update deepdive.Update
		// base is the strategy without the lesion, want with it.
		base, want deepdive.Strategy
	}{
		{"NoSampling", deepdive.Lesions{NoSampling: true}, newDoc, deepdive.StrategySampling, deepdive.StrategyVariational},
		{"NoVariational", deepdive.Lesions{NoVariational: true}, newEvidence, deepdive.StrategyVariational, deepdive.StrategySampling},
		{"NoWorkloadInfo", deepdive.Lesions{NoWorkloadInfo: true}, newEvidence, deepdive.StrategyVariational, deepdive.StrategySampling},
		{"NoDecomposition", deepdive.Lesions{NoDecomposition: true}, newDoc, deepdive.StrategySampling, deepdive.StrategySampling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, got := apply(deepdive.Lesions{}, tc.update), apply(tc.lesion, tc.update)
			if base.Strategy != tc.base || got.Strategy != tc.want {
				t.Fatalf("strategy %v without the lesion (want %v), %v with it (want %v)",
					base.Strategy, tc.base, got.Strategy, tc.want)
			}
			// One global acceptance test rejects where the new document's
			// own component would have accepted.
			if tc.lesion.NoDecomposition && got.Acceptance >= base.Acceptance {
				t.Fatalf("acceptance %.3f with decomposition, %.3f without", base.Acceptance, got.Acceptance)
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
