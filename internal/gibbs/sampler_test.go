package gibbs

import (
	"math"
	"testing"

	"deepdive/internal/factor"
)

// singleVarGraph builds one free variable with a prior weight w
// (energy +w when true, −w when false via a self-headed group with one
// always-true evidence grounding).
func singleVarGraph(w float64) (*factor.Graph, factor.VarID) {
	b := factor.NewBuilder()
	q := b.AddVar()
	ev := b.AddEvidenceVar(true)
	wid := b.AddWeight(w)
	b.AddGroup(q, wid, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: ev}}}})
	return b.MustBuild(), q
}

func TestSamplerSingleVariableMarginal(t *testing.T) {
	// P(q) = sigmoid(2w) because E(1)=w, E(0)=−w.
	for _, w := range []float64{-1, 0, 0.5, 2} {
		g, q := singleVarGraph(w)
		s := New(g, 42)
		m := s.Marginals(100, 4000)
		want := 1 / (1 + math.Exp(-2*w))
		if math.Abs(m[q]-want) > 0.03 {
			t.Errorf("w=%v: marginal %v, want %v ± 0.03", w, m[q], want)
		}
	}
}

func TestSamplerMatchesExactEnumeration(t *testing.T) {
	// Three coupled variables; compare Gibbs marginals to exact
	// enumeration over the 8 worlds.
	b := factor.NewBuilder()
	v0, v1, v2 := b.AddVar(), b.AddVar(), b.AddVar()
	w1 := b.AddWeight(0.8)
	w2 := b.AddWeight(-0.6)
	ev := b.AddEvidenceVar(true)
	b.AddGroup(v0, w1, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: v1}}}})
	b.AddGroup(v1, w2, factor.Ratio, []factor.Grounding{
		{Lits: []factor.Literal{{Var: v2}}},
		{Lits: []factor.Literal{{Var: v0, Neg: true}}},
	})
	b.AddGroup(v2, w1, factor.Logical, []factor.Grounding{{Lits: []factor.Literal{{Var: ev}}}})
	g := b.MustBuild()

	exact := make([]float64, g.NumVars())
	var z float64
	assign := make([]bool, g.NumVars())
	assign[ev] = true
	for mask := 0; mask < 8; mask++ {
		assign[v0] = mask&1 != 0
		assign[v1] = mask&2 != 0
		assign[v2] = mask&4 != 0
		p := math.Exp(g.Energy(assign))
		z += p
		for i, val := range assign {
			if val {
				exact[i] += p
			}
		}
	}
	for i := range exact {
		exact[i] /= z
	}

	s := New(g, 7)
	m := s.Marginals(200, 20000)
	for _, v := range []factor.VarID{v0, v1, v2} {
		if math.Abs(m[v]-exact[v]) > 0.02 {
			t.Errorf("var %d: gibbs %v, exact %v", v, m[v], exact[v])
		}
	}
}

func TestSamplerRespectsEvidence(t *testing.T) {
	b := factor.NewBuilder()
	q := b.AddVar()
	e1 := b.AddEvidenceVar(true)
	e0 := b.AddEvidenceVar(false)
	w := b.AddWeight(1)
	b.AddGroup(q, w, factor.Linear, []factor.Grounding{{Lits: []factor.Literal{{Var: e1}}}})
	g := b.MustBuild()
	s := New(g, 1)
	if s.NumFree() != 1 {
		t.Fatalf("NumFree = %d, want 1", s.NumFree())
	}
	s.Run(50)
	if s.State.Assign[e1] != true || s.State.Assign[e0] != false {
		t.Fatal("evidence values disturbed by sampling")
	}
}

func TestSamplerDeterministicBySeed(t *testing.T) {
	g, _ := singleVarGraph(0.3)
	a := New(g, 5).Marginals(10, 500)
	b := New(g, 5).Marginals(10, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different marginals")
		}
	}
	c := New(g, 6).Marginals(10, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Log("different seeds coincided (possible but unlikely); not fatal")
	}
}

func TestEstimator(t *testing.T) {
	b := factor.NewBuilder()
	b.AddVar()
	b.AddVar()
	e := NewEstimatorFor(b.MustBuild())
	if e.N() != 0 || e.Mean(0) != 0 {
		t.Fatal("fresh estimator not zeroed")
	}
	e.Observe([]bool{true, false})
	e.Observe([]bool{true, true})
	if e.N() != 2 || e.Mean(0) != 1 || e.Mean(1) != 0.5 {
		t.Fatalf("means = %v, n=%d", e.Means(), e.N())
	}
}

func TestRandomizeState(t *testing.T) {
	b := factor.NewBuilder()
	for i := 0; i < 64; i++ {
		b.AddVar()
	}
	g := b.MustBuild()
	s := New(g, 9)
	s.RandomizeState()
	trues := 0
	for _, v := range s.State.Assign {
		if v {
			trues++
		}
	}
	if trues == 0 || trues == 64 {
		t.Fatalf("RandomizeState gave degenerate assignment: %d true", trues)
	}
}

func TestSweepsToConverge(t *testing.T) {
	g, q := singleVarGraph(0) // uniform: P(q)=0.5
	res := SweepsToConverge(g, q, 0.5, 0.05, 5000, 20, 3)
	if !res.Converged {
		t.Fatalf("uniform single var did not converge: %+v", res)
	}
	// An impossible target must not report convergence.
	res = SweepsToConverge(g, q, 10, 0.01, 200, 5, 3)
	if res.Converged {
		t.Fatal("converged to impossible target")
	}
}

func TestCollectSamplesMeans(t *testing.T) {
	g, q := singleVarGraph(1)
	s := New(g, 11)
	st := s.CollectSamples(100, 3000)
	if st.Len() != 3000 {
		t.Fatalf("stored %d samples, want 3000", st.Len())
	}
	want := 1 / (1 + math.Exp(-2.0))
	if got := st.Means()[q]; math.Abs(got-want) > 0.04 {
		t.Fatalf("stored-sample mean %v, want %v ± 0.04", got, want)
	}
}
