package deepdive_test

import (
	"math"
	"testing"

	"deepdive"
	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/inc"
)

// TestReplicaInferenceMatchesSequentialOnQuickstart runs sequential and
// replica-engine Gibbs over the identical learned quickstart graph and
// requires the marginals to agree within 0.02 mean absolute difference —
// the acceptance bound for the replica sampling path.
func TestReplicaInferenceMatchesSequentialOnQuickstart(t *testing.T) {
	g := quickstartGraph(t)
	seq, _ := inc.RerunWithCtx(ctx, g, 50, 5000, 9, gibbs.Runtime{})
	rep, _ := inc.RerunWithCtx(ctx, g, 50, 1500, 9, gibbs.Runtime{Replicas: 4, SyncEvery: 8})
	if len(seq) != len(rep) {
		t.Fatalf("marginal widths differ: %d vs %d", len(seq), len(rep))
	}
	var mad float64
	n := 0
	for v := range seq {
		if g.IsEvidence(factor.VarID(v)) {
			if seq[v] != rep[v] {
				t.Fatalf("evidence var %d: sequential %v, replica %v", v, seq[v], rep[v])
			}
			continue
		}
		mad += math.Abs(seq[v] - rep[v])
		n++
	}
	mad /= float64(n)
	if mad > 0.02 {
		t.Fatalf("mean absolute marginal difference = %.4f over %d free vars, want <= 0.02", mad, n)
	}
}

// TestEngineWithReplicas drives the full public development loop — learn,
// infer, materialize, incremental update — on the replica engine,
// checking that WithReplicas is wired through every layer and still
// learns the quickstart relation.
func TestEngineWithReplicas(t *testing.T) {
	developOn(t, spouseInit(t, deepdive.WithReplicas(4, 8)))
}

// TestEngineReplicasOnPatchedGraph composes the replica engine with
// the O(Δ) patch path (the default): replicas sample over a graph patched
// in place.
func TestEngineReplicasOnPatchedGraph(t *testing.T) {
	eng, err := deepdive.OpenKB(spouseSource,
		deepdive.WithUDF("phrase", phraseUDF),
		deepdive.WithSeed(11),
		deepdive.WithLearning(10, 0.3),
		deepdive.WithInference(20, 200),
		deepdive.WithMaterialization(400, 0.01),
		deepdive.WithReplicas(2, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	must(t, eng.Load("Sentence", []deepdive.Tuple{
		{"s1", "Alan and his wife Beth"},
		{"s2", "Carl and his wife Dana"},
	}))
	must(t, eng.Load("PersonMention", []deepdive.Tuple{
		{"a", "s1", "Alan"}, {"b", "s1", "Beth"},
		{"c", "s2", "Carl"}, {"d", "s2", "Dana"},
	}))
	must(t, eng.Load("Married", []deepdive.Tuple{{"Alan", "Beth"}}))
	must(t, eng.Init(ctx))
	_, err = eng.Learn(ctx)
	must(t, err)
	_, err = eng.Materialize(ctx)
	must(t, err)
	res, err := eng.Apply(ctx, deepdive.Update{Inserts: map[string][]deepdive.Tuple{
		"Sentence":      {{"s3", "Eve and her husband Frank"}},
		"PersonMention": {{"e", "s3", "Eve"}, {"f", "s3", "Frank"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVars == 0 {
		t.Fatal("in-place update grounded no new variables")
	}
	if _, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"e", "f"}); !ok {
		t.Fatal("no marginal for the patched-in pair (e,f)")
	}
}
