package learn

import (
	"math"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
)

// classifierGraph builds the paper's one-line classifier
// Class(x) :- R(x, f) weight = w(f) over nObj objects: even objects carry
// feature 0 and are labeled true, odd objects carry feature 1 and are
// labeled false. The first nTrain objects are evidence; the rest are
// held-out queries. Returns the graph and the query variable ids. The
// evidence anchor ties every object into one released component past the
// enumeration bound, so the learner estimates its gradient with the chain
// pair: these tests drive the runtimes' chains.
func classifierGraph(nObj, nTrain int) (*factor.Graph, []factor.VarID) {
	b := factor.NewBuilder()
	anchor := b.AddEvidenceVar(true)
	w := []factor.WeightID{b.AddWeight(0), b.AddWeight(0)}
	var queries []factor.VarID
	for i := 0; i < nObj; i++ {
		label := i%2 == 0
		var v factor.VarID
		if i < nTrain {
			v = b.AddEvidenceVar(label)
		} else {
			v = b.AddVar()
			queries = append(queries, v)
		}
		feat := i % 2
		b.AddGroup(v, w[feat], factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
	}
	return b.MustBuild(), queries
}

func TestTrainLearnsSeparatingWeights(t *testing.T) {
	g, queries := classifierGraph(40, 30)
	res := Train(g, Options{Epochs: 40, StepSize: 0.3, Seed: 1})
	if res.Weights[0] <= 0.5 {
		t.Fatalf("weight for positive feature = %v, want > 0.5", res.Weights[0])
	}
	if res.Weights[1] >= -0.5 {
		t.Fatalf("weight for negative feature = %v, want < -0.5", res.Weights[1])
	}
	// Held-out inference: even objects should come out likely-true.
	s := gibbs.New(g, 2)
	m := s.Marginals(50, 1000)
	for qi, v := range queries {
		obj := 30 + qi
		if obj%2 == 0 && m[v] < 0.7 {
			t.Errorf("held-out positive object %d marginal %v, want > 0.7", obj, m[v])
		}
		if obj%2 == 1 && m[v] > 0.3 {
			t.Errorf("held-out negative object %d marginal %v, want < 0.3", obj, m[v])
		}
	}
}

func TestTrainLossDecreases(t *testing.T) {
	g, _ := classifierGraph(40, 30)
	initial := NewTrainer(g, Options{Seed: 3}).Loss(5) // untrained model
	res := Train(g, Options{Epochs: 25, StepSize: 0.3, Seed: 3, TrackLoss: true})
	if len(res.LossByEpoch) != 25 {
		t.Fatalf("tracked %d losses, want 25", len(res.LossByEpoch))
	}
	last := res.LossByEpoch[len(res.LossByEpoch)-1]
	if last >= initial {
		t.Fatalf("loss did not decrease: untrained %v final %v", initial, last)
	}
	if last > 0.4 {
		t.Fatalf("final loss %v too high for a separable problem", last)
	}
}

func TestWarmstartStartsLower(t *testing.T) {
	g, _ := classifierGraph(40, 30)
	good := Train(g, Options{Epochs: 40, StepSize: 0.3, Seed: 4}).Weights

	cold := NewTrainer(g, Options{Seed: 5})
	coldLoss := cold.Loss(5)

	warm := NewTrainer(g, Options{Seed: 5, Warmstart: good})
	warmLoss := warm.Loss(5)

	if warmLoss >= coldLoss {
		t.Fatalf("warmstart loss %v not lower than cold loss %v", warmLoss, coldLoss)
	}
}

func TestGDAlsoLearns(t *testing.T) {
	g, _ := classifierGraph(40, 30)
	res := Train(g, Options{Method: GD, Epochs: 60, StepSize: 0.5, BatchSweeps: 5, Seed: 6})
	if res.Weights[0] <= 0.3 || res.Weights[1] >= -0.3 {
		t.Fatalf("GD weights did not separate: %v", res.Weights[:2])
	}
}

func TestSGDConvergesFasterThanGDPerEpoch(t *testing.T) {
	// SGD takes BatchSweeps steps per epoch vs GD's single step, so for
	// equal epochs its loss should be at least as low. This mirrors the
	// Figure 16 ordering (SGD+warmstart fastest, GD slowest).
	g1, _ := classifierGraph(40, 30)
	sgd := Train(g1, Options{Method: SGD, Epochs: 10, StepSize: 0.3, Seed: 7, TrackLoss: true})
	g2, _ := classifierGraph(40, 30)
	gd := Train(g2, Options{Method: GD, Epochs: 10, StepSize: 0.3, Seed: 7, TrackLoss: true})
	if sgd.LossByEpoch[9] > gd.LossByEpoch[9]+0.05 {
		t.Fatalf("SGD loss %v much worse than GD loss %v at epoch 10",
			sgd.LossByEpoch[9], gd.LossByEpoch[9])
	}
}

func TestEvidenceLossPerfectAndTerribleModels(t *testing.T) {
	g, _ := classifierGraph(20, 20)
	g.SetWeights([]float64{5, -5}) // near-perfect model
	s := gibbs.New(g, 8)
	goodLoss := EvidenceLoss(g, s, 5)
	g.SetWeights([]float64{-5, 5}) // inverted model
	s2 := gibbs.New(g, 8)
	badLoss := EvidenceLoss(g, s2, 5)
	if goodLoss >= badLoss {
		t.Fatalf("good model loss %v not lower than bad model loss %v", goodLoss, badLoss)
	}
	if goodLoss > 0.1 {
		t.Fatalf("near-perfect model loss %v, want < 0.1", goodLoss)
	}
}

func TestEvidenceLossNoEvidence(t *testing.T) {
	b := factor.NewBuilder()
	b.AddVar()
	g := b.MustBuild()
	if got := EvidenceLoss(g, gibbs.New(g, 1), 3); got != 0 {
		t.Fatalf("loss with no evidence = %v, want 0", got)
	}
}

func TestTrainerPanicsOnBadWarmstart(t *testing.T) {
	g, _ := classifierGraph(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("bad warmstart length did not panic")
		}
	}()
	NewTrainer(g, Options{Warmstart: []float64{1}})
}

func TestTrainReplicasLearnsSeparatingWeights(t *testing.T) {
	g, queries := classifierGraph(40, 30)
	res := Train(g, Options{Epochs: 40, StepSize: 0.3, Seed: 1, Runtime: gibbs.Runtime{Replicas: 4, SyncEvery: 4}})
	if res.Weights[0] <= 0.5 {
		t.Fatalf("replica weight for positive feature = %v, want > 0.5", res.Weights[0])
	}
	if res.Weights[1] >= -0.5 {
		t.Fatalf("replica weight for negative feature = %v, want < -0.5", res.Weights[1])
	}
	// The learned model must be written back into the graph.
	if g.Weight(0) != res.Weights[0] || g.Weight(1) != res.Weights[1] {
		t.Fatal("final weights not pushed into the graph")
	}
	s := gibbs.New(g, 2)
	m := s.Marginals(50, 1000)
	for qi, v := range queries {
		obj := 30 + qi
		if obj%2 == 0 && m[v] < 0.7 {
			t.Errorf("held-out positive object %d marginal %v, want > 0.7", obj, m[v])
		}
		if obj%2 == 1 && m[v] > 0.3 {
			t.Errorf("held-out negative object %d marginal %v, want < 0.3", obj, m[v])
		}
	}
}

func TestTrainReplicasDeterministic(t *testing.T) {
	run := func() []float64 {
		g, _ := classifierGraph(30, 24)
		return Train(g, Options{Epochs: 6, StepSize: 0.3, Seed: 9, Runtime: gibbs.Runtime{Replicas: 3, SyncEvery: 2}}).Weights
	}
	a, b := run(), run()
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("weight %d: run1 %v, run2 %v — replica training not deterministic", k, a[k], b[k])
		}
	}
}

func TestTrainReplicasGD(t *testing.T) {
	g, _ := classifierGraph(40, 30)
	res := Train(g, Options{Method: GD, Epochs: 60, StepSize: 0.5, BatchSweeps: 5, Seed: 6, Runtime: gibbs.Runtime{Replicas: 2, SyncEvery: 4}})
	if res.Weights[0] <= 0.3 || res.Weights[1] >= -0.3 {
		t.Fatalf("replica GD weights did not separate: %v", res.Weights[:2])
	}
}

func TestTrainReplicasRespectsFrozen(t *testing.T) {
	g, _ := classifierGraph(20, 16)
	frozen := []bool{false, true} // weight 1 fixed
	res := Train(g, Options{Epochs: 15, StepSize: 0.3, Seed: 3, Runtime: gibbs.Runtime{Replicas: 3, SyncEvery: 2}, Frozen: frozen})
	if res.Weights[1] != 0 {
		t.Fatalf("frozen weight moved to %v under replica chains", res.Weights[1])
	}
	if res.Weights[0] <= 0.3 {
		t.Fatalf("learnable weight did not move: %v", res.Weights[0])
	}
}

// TestTrainerReplicasAccessorsAndLoss checks that the replica runtime
// reaches the learner as its two chains — no separate learning engine —
// and that the driver-side loss reads them.
func TestTrainerReplicasAccessorsAndLoss(t *testing.T) {
	g, _ := classifierGraph(20, 16)
	tr := NewTrainer(g, Options{Seed: 5, Runtime: gibbs.Runtime{Replicas: 2}})
	for name, c := range map[string]gibbs.Chain{"clamped": tr.clamped, "free": tr.free} {
		r, ok := c.(*gibbs.ReplicaSampler)
		if !ok {
			t.Fatalf("%s chain is %T, want *gibbs.ReplicaSampler", name, c)
		}
		if r.Replicas() != 2 {
			t.Fatalf("%s chain runs %d replicas, want 2", name, r.Replicas())
		}
	}
	tr.Epoch(0)
	if l := tr.Loss(3); math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 {
		t.Fatalf("replica trainer loss = %v", l)
	}
	seq := NewTrainer(g, Options{Seed: 5})
	if _, ok := seq.clamped.(*gibbs.Sampler); !ok {
		t.Fatalf("default trainer chain is %T, want *gibbs.Sampler", seq.clamped)
	}
}

func TestMethodString(t *testing.T) {
	if SGD.String() != "sgd" || GD.String() != "gd" {
		t.Fatal("Method.String mismatch")
	}
	if Method(9).String() != "Method(9)" {
		t.Fatal("unknown Method.String mismatch")
	}
}

func TestOptionsFillDefaults(t *testing.T) {
	o := Options{}.fill()
	if o.Epochs != 20 || o.StepSize != 0.1 || o.BatchSweeps != 10 || o.Burnin != 10 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{L2: -1}.fill()
	if o2.L2 != 0 {
		t.Fatalf("negative L2 should clamp to 0, got %v", o2.L2)
	}
}

func TestLearnedMarginalCloseToLogistic(t *testing.T) {
	// With only one feature and all-positive labels, the learned model
	// should put the held-out marginal near 1 — an end-to-end calibration
	// smoke test.
	b := factor.NewBuilder()
	anchor := b.AddEvidenceVar(true)
	w := b.AddWeight(0)
	for i := 0; i < 20; i++ {
		v := b.AddEvidenceVar(true)
		b.AddGroup(v, w, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
	}
	q := b.AddVar()
	b.AddGroup(q, w, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: anchor}}}})
	g := b.MustBuild()
	Train(g, Options{Epochs: 40, StepSize: 0.3, Seed: 11})
	m := gibbs.New(g, 12).Marginals(50, 1000)
	if m[q] < 0.85 {
		t.Fatalf("all-positive training gave held-out marginal %v, want > 0.85", m[q])
	}
	_ = math.Pi
}
