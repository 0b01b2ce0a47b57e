package deepdive_test

import (
	"math"
	"strings"
	"testing"

	"deepdive"
	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/ground"
	"deepdive/internal/inc"
	"deepdive/internal/learn"
)

// quickstartGraph grounds the quickstart (Figure 2) program and learns
// its weights sequentially, returning the graph plus the learnable mask.
func quickstartGraph(t *testing.T) *factor.Graph {
	t.Helper()
	prog, err := datalog.Parse(spouseSource)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.New(prog, ground.UDFRegistry{"phrase": func(args []string) string {
		words := strings.Fields(args[2])
		if len(words) > 2 {
			return strings.Join(words[1:len(words)-1], "_")
		}
		return "short"
	}})
	if err != nil {
		t.Fatal(err)
	}
	load := func(rel string, tuples []db.Tuple) {
		if err := g.LoadBase(rel, tuples); err != nil {
			t.Fatal(err)
		}
	}
	load("Sentence", []db.Tuple{
		{"s1", "Alan and his wife Beth"},
		{"s2", "Carl and his wife Dana"},
		{"s3", "Eve met Frank"},
	})
	load("PersonMention", []db.Tuple{
		{"a", "s1", "Alan"}, {"b", "s1", "Beth"},
		{"c", "s2", "Carl"}, {"d", "s2", "Dana"},
		{"e", "s3", "Eve"}, {"f", "s3", "Frank"},
	})
	load("Married", []db.Tuple{{"Alan", "Beth"}})
	if err := g.Ground(); err != nil {
		t.Fatal(err)
	}
	graph := g.Graph()
	frozen := make([]bool, graph.NumWeights())
	for i := range frozen {
		frozen[i] = true
	}
	for _, w := range g.LearnableWeights() {
		frozen[w] = false
	}
	learn.Train(graph, learn.Options{Epochs: 15, StepSize: 0.3, Seed: 8, Frozen: frozen})
	return graph
}

// TestParallelInferenceMatchesSequentialOnQuickstart runs sequential and
// sharded-parallel Gibbs over the identical learned quickstart graph and
// requires the marginals to agree within 0.02 mean absolute difference —
// the acceptance bound for the parallel sampling path.
func TestParallelInferenceMatchesSequentialOnQuickstart(t *testing.T) {
	g := quickstartGraph(t)
	seq, _ := inc.RerunWithCtx(ctx, g, 50, 5000, 9, gibbs.Runtime{})
	par, _ := inc.RerunWithCtx(ctx, g, 50, 5000, 9, gibbs.Runtime{Workers: 4})
	if len(seq) != len(par) {
		t.Fatalf("marginal widths differ: %d vs %d", len(seq), len(par))
	}
	var mad float64
	n := 0
	for v := range seq {
		if g.IsEvidence(factor.VarID(v)) {
			if seq[v] != par[v] {
				t.Fatalf("evidence var %d: sequential %v, parallel %v", v, seq[v], par[v])
			}
			continue
		}
		mad += math.Abs(seq[v] - par[v])
		n++
	}
	mad /= float64(n)
	if mad > 0.02 {
		t.Fatalf("mean absolute marginal difference = %.4f over %d free vars, want <= 0.02", mad, n)
	}
}

// TestEngineWithParallelism drives the full public development loop —
// learn, infer, materialize, incremental update — with parallel chains
// enabled, checking that the parallel path is wired through every layer
// and still learns the quickstart relation.
func TestEngineWithParallelism(t *testing.T) {
	developOn(t, spouseInit(t, deepdive.WithParallelism(4)))
}

// developOn drives the public development loop on an initialised spouse
// KB: learn, infer, materialize, and one incremental document.
func developOn(t *testing.T, eng *deepdive.KB) {
	t.Helper()
	_, err := eng.Learn(ctx)
	must(t, err)
	_, err = eng.Infer(ctx)
	must(t, err)
	p, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"c", "d"})
	if !ok {
		t.Fatal("no marginal for (c,d)")
	}
	if p < 0.6 {
		t.Fatalf("P(HasSpouse(c,d)) = %v, want > 0.6 (learned from s1)", p)
	}
	_, err = eng.Materialize(ctx)
	must(t, err)
	res, err := eng.Apply(ctx, deepdive.Update{Inserts: map[string][]deepdive.Tuple{
		"Sentence":      {{"s4", "Gail and her husband Hank"}},
		"PersonMention": {{"g", "s4", "Gail"}, {"h", "s4", "Hank"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVars == 0 {
		t.Fatal("update grounded no new variables")
	}
	if _, ok := eng.Marginal("HasSpouse", deepdive.Tuple{"g", "h"}); !ok {
		t.Fatal("no marginal for the incremental pair (g,h)")
	}
}
