package ground

// Differential test for sharded grounding: the initial grounding and then
// the same randomized update stream are applied to a sequential grounder
// and a parallel one (SetParallelism > 1), and after every step the two
// must agree bit-for-bit — identical deltas (the parallel path applies
// bindings in the canonical sequential order, so interning order is
// preserved), identical derived relations, and semantically identical
// graphs.
// Failures name the subtest seed; re-run with
// -run 'TestParallelDeltaGroundingMatchesSequential/seed=N'.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"deepdive/internal/factor"
)

func TestParallelDeltaGroundingMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runParallelDifferential(t, seed, 4)
		})
	}
	// Negative parallelism = one worker per core.
	t.Run("seed=1_per_core", func(t *testing.T) {
		runParallelDifferential(t, 1, -1)
	})
}

func runParallelDifferential(t *testing.T, seed int64, workers int) {
	rng := rand.New(rand.NewSource(seed))
	seq := &patchedPair{g: loadGrounder(t, spouseSrc, spouseBase(), testUDFs()), src: spouseSrc}
	par := &patchedPair{g: loadGrounder(t, spouseSrc, spouseBase(), testUDFs()), src: spouseSrc}
	par.g.SetParallelism(workers)

	gen := newSpouseStream()
	for step := 0; step <= 25; step++ {
		// Step 0 is the initial grounding of the loaded base, from scratch.
		u, ruleSrc := Update{}, ""
		if step > 0 {
			u, ruleSrc = gen.next(rng)
		}

		ds := seq.apply(t, cloneUpdate(u), ruleSrc)
		dp := par.apply(t, cloneUpdate(u), ruleSrc)
		if !reflect.DeepEqual(ds, dp) {
			t.Fatalf("seed %d step %d: deltas diverge:\nsequential: %+v\nparallel:   %+v", seed, step, ds, dp)
		}
		if seq.g.Version() != par.g.Version() || seq.g.NumVars() != par.g.NumVars() ||
			seq.g.NumGroups() != par.g.NumGroups() || seq.g.NumGroundings() != par.g.NumGroundings() {
			t.Fatalf("seed %d step %d: grounder state diverges: version %d/%d vars %d/%d groups %d/%d gnds %d/%d",
				seed, step, seq.g.Version(), par.g.Version(), seq.g.NumVars(), par.g.NumVars(),
				seq.g.NumGroups(), par.g.NumGroups(), seq.g.NumGroundings(), par.g.NumGroundings())
		}
		for _, rel := range []string{"MarriedCandidate", "MarriedMentions", "MarriedMentions_Ev"} {
			ts, tp := seq.g.DB().Relation(rel).Tuples(), par.g.DB().Relation(rel).Tuples()
			if !reflect.DeepEqual(ts, tp) {
				t.Fatalf("seed %d step %d: relation %s diverges:\nsequential: %v\nparallel:   %v",
					seed, step, rel, ts, tp)
			}
		}
		if diffs := factor.DiffGraphs(seq.g.Graph(), par.g.Graph(), 3, seed*1000+int64(step)); len(diffs) > 0 {
			msg := ""
			for _, d := range diffs {
				msg += "  " + d + "\n"
			}
			t.Fatalf("seed %d step %d: parallel graph != sequential graph:\n%s", seed, step, msg)
		}
	}
}
