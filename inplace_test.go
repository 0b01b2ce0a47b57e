package deepdive_test

import (
	"math"
	"testing"

	"deepdive"
)

// TestEngineInPlaceUpdateMatchesRebuild runs the same development
// sequence — a new document, then a new rule — through the default
// O(Δ) patch path and the rebuild oracle (KB.RebuildUpdates), and
// requires the resulting knowledge bases to agree: same candidates, same
// evidence, marginals within sampling tolerance.
func TestEngineInPlaceUpdateMatchesRebuild(t *testing.T) {
	updates := []deepdive.Update{
		{Inserts: map[string][]deepdive.Tuple{
			"Sentence":      {{"s4", "Gus and his wife Hana"}},
			"PersonMention": {{"g", "s4", "Gus"}, {"h", "s4", "Hana"}},
		}},
		{RuleSource: `Sym: HasSpouse(m2, m1) :- HasSpouse(m1, m2) weight = 1.5.`},
	}

	engines := map[string]*deepdive.KB{
		"rebuild": spouseMaterialized(t),
		"inplace": spouseMaterialized(t),
	}
	engines["rebuild"].RebuildUpdates()
	for name, eng := range engines {
		for i, u := range updates {
			if _, err := eng.Apply(ctx, u); err != nil {
				t.Fatalf("%s: update %d: %v", name, i, err)
			}
		}
	}

	reb, inp := engines["rebuild"], engines["inplace"]
	cands := reb.Candidates("HasSpouse")
	if got := inp.Candidates("HasSpouse"); len(got) != len(cands) {
		t.Fatalf("candidate counts diverge: %d vs %d", len(cands), len(got))
	}
	for _, c := range cands {
		pr, okR := reb.Marginal("HasSpouse", c)
		pi, okI := inp.Marginal("HasSpouse", c)
		if okR != okI {
			t.Fatalf("candidate %v: marginal presence diverges (%v vs %v)", c, okR, okI)
		}
		if math.Abs(pr-pi) > 0.15 {
			t.Fatalf("candidate %v: marginal %v (rebuild) vs %v (in-place)", c, pr, pi)
		}
	}
	// The incremental pair must be recovered on both paths.
	for name, eng := range engines {
		p, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"g", "h"})
		if !ok || p < 0.5 {
			t.Fatalf("%s: P(HasSpouse(g,h)) = %v ok=%v, want > 0.5", name, p, ok)
		}
	}
	sr, si := reb.Stats(), inp.Stats()
	if !statsEqual(sr, si) {
		t.Fatalf("graph stats diverge: %+v vs %+v", sr, si)
	}
}
