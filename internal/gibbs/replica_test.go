package gibbs

import (
	"math"
	"testing"

	"deepdive/internal/factor"
)

// TestReplicaMatchesSequentialMarginals checks that the replica engine
// estimates the same distribution as the sequential scan sampler: the
// pooled per-replica counts must be an unbiased marginal estimate.
func TestReplicaMatchesSequentialMarginals(t *testing.T) {
	g := chainGraph(120, 0.5)
	seq := New(g, 7)
	seq.RandomizeState()
	want := seq.Marginals(50, 4000)

	rep := NewReplica(g, 4, 8, 11)
	if rep.Replicas() != 4 || rep.SyncEvery() != 8 {
		t.Fatalf("Replicas()=%d SyncEvery()=%d, want 4, 8", rep.Replicas(), rep.SyncEvery())
	}
	rep.RandomizeState()
	got := rep.Marginals(50, 1000) // pools 4000 observations across 4 replicas

	var mad float64
	for v := range want {
		mad += math.Abs(want[v] - got[v])
	}
	mad /= float64(len(want))
	if mad > 0.02 {
		t.Fatalf("mean absolute marginal difference = %.4f, want <= 0.02", mad)
	}
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) {
			fixed := 0.0
			if g.EvidenceValue(factor.VarID(v)) {
				fixed = 1
			}
			if got[v] != fixed {
				t.Fatalf("evidence var %d marginal = %v, want %v", v, got[v], fixed)
			}
		}
	}
}

// TestReplicaDeterministicAtFixedConfig verifies bit-for-bit
// reproducibility for a fixed (seed, replicas, syncEvery) triple: workers
// touch only private state between merges, so goroutine scheduling cannot
// leak into the chain.
func TestReplicaDeterministicAtFixedConfig(t *testing.T) {
	g := chainGraph(90, 0.6)
	run := func(seed int64, replicas, syncEvery int) []float64 {
		r := NewReplica(g, replicas, syncEvery, seed)
		r.RandomizeState()
		return r.Marginals(20, 300)
	}
	a, b := run(42, 3, 4), run(42, 3, 4)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("var %d: run1 = %v, run2 = %v — not deterministic", v, a[v], b[v])
		}
	}
	// A different seed must give a different chain (sanity that the check
	// above is not vacuous).
	c := run(43, 3, 4)
	same := true
	for v := range a {
		if a[v] != c[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical marginals")
	}
}

// TestReplicaConsensusAndWorlds covers the vote/exchange mechanics: the
// consensus view respects evidence, each replica world is a full valid
// assignment, and the ring exchange rotates worlds without losing any.
func TestReplicaConsensusAndWorlds(t *testing.T) {
	g := chainGraph(60, 0.4)
	r := NewReplica(g, 3, 2, 5)
	r.RandomizeState()
	r.Run(7)
	cons := r.Assign()
	if len(cons) != g.NumVars() {
		t.Fatalf("consensus width %d, want %d", len(cons), g.NumVars())
	}
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) {
			if cons[v] != g.EvidenceValue(factor.VarID(v)) {
				t.Fatalf("consensus flips evidence var %d", v)
			}
			for w := 0; w < r.Replicas(); w++ {
				if r.World(w)[v] != g.EvidenceValue(factor.VarID(v)) {
					t.Fatalf("replica %d flips evidence var %d", w, v)
				}
			}
		}
	}
	// Consensus of identical replicas is that world; with a tie it adopts
	// replica 0 — either way a majority vote over {true,true,false} is true.
	two := NewReplica(g, 2, 1000, 9) // never auto-merges during the run
	two.Run(3)
	w0 := append([]bool(nil), two.World(0)...)
	votes := two.Assign()
	for _, v := range two.free {
		if two.World(0)[v] == two.World(1)[v] && votes[v] != two.World(0)[v] {
			t.Fatalf("unanimous vote ignored at var %d", v)
		}
		if two.World(0)[v] != two.World(1)[v] && votes[v] != w0[v] {
			t.Fatalf("tie at var %d must adopt replica 0's value", v)
		}
	}
}

// TestReplicaCollectSamples checks the materialization loop: sample
// count, width, evidence respected, and the round-robin drain yielding
// Replicas worlds per sweep.
func TestReplicaCollectSamples(t *testing.T) {
	g := chainGraph(60, 0.4)
	r := NewReplica(g, 2, 8, 5)
	r.RandomizeState()
	st := r.CollectSamples(10, 51)
	if st.Len() != 51 || st.NumVars() != g.NumVars() {
		t.Fatalf("store: len=%d vars=%d, want 51, %d", st.Len(), st.NumVars(), g.NumVars())
	}
	for v := 0; v < g.NumVars(); v++ {
		if g.IsEvidence(factor.VarID(v)) && st.Bit(0, v) != g.EvidenceValue(factor.VarID(v)) {
			t.Fatalf("stored sample flips evidence var %d", v)
		}
	}
	// StoreWorlds appends exactly one world per replica.
	before := st.Len()
	r.StoreWorlds(st)
	if st.Len() != before+r.Replicas() {
		t.Fatalf("StoreWorlds added %d worlds, want %d", st.Len()-before, r.Replicas())
	}
}

// TestReplicaDefaultsAndChainDispatch covers the GOMAXPROCS/default
// resolution and the Runtime factory's engine selection.
func TestReplicaDefaultsAndChainDispatch(t *testing.T) {
	g := chainGraph(10, 0.3)
	auto := NewReplica(g, 0, 0, 1)
	if auto.Replicas() < 1 || auto.SyncEvery() != DefaultSyncEvery {
		t.Fatalf("auto replica defaults: replicas=%d syncEvery=%d", auto.Replicas(), auto.SyncEvery())
	}
	auto.Run(3) // must not panic

	if _, ok := (Runtime{}).NewChain(g, 1).(*Sampler); !ok {
		t.Fatal("zero Runtime should select the sequential Sampler")
	}
	if _, ok := (Runtime{Workers: 4}).NewChain(g, 1).(*ParallelSampler); !ok {
		t.Fatal("Workers=4 should select the ParallelSampler")
	}
	if _, ok := (Runtime{Replicas: 1}).NewChain(g, 1).(*ReplicaSampler); !ok {
		t.Fatal("Replicas=1 should select the ReplicaSampler")
	}
	if _, ok := (Runtime{Replicas: -1, Workers: 4}).NewChain(g, 1).(*ReplicaSampler); !ok {
		t.Fatal("Replicas=-1 should override Workers")
	}
	if (Runtime{Replicas: 2}).ReplicaMode() != true || (Runtime{Workers: 8}).ReplicaMode() != false {
		t.Fatal("ReplicaMode misreports")
	}
}

// TestReplicaWeightStatsAveraged cross-checks the replica-averaged
// sufficient statistic: with one replica it must equal the direct
// single-world statistic.
func TestReplicaWeightStatsAveraged(t *testing.T) {
	g := chainGraph(40, 0.5)
	r := NewReplica(g, 1, 4, 9)
	r.RandomizeState()
	r.Run(3)
	got := make([]float64, g.NumWeights())
	r.WeightStats(got)
	want := make([]float64, g.NumWeights())
	g.WeightStatsOf(r.World(0), want)
	for k := range want {
		if math.Abs(want[k]-got[k]) > 1e-12 {
			t.Fatalf("weight %d: direct stat %v, replica stat %v", k, want[k], got[k])
		}
	}
}

// TestReplicaWeightStatsAllocationFree guards the learner's per-sweep cost
// in replica mode: it reads both chains' statistics every sweep, so
// WeightStats must reuse the sampler's buffer instead of allocating one.
func TestReplicaWeightStatsAllocationFree(t *testing.T) {
	g := chainGraph(40, 0.5)
	r := NewReplica(g, 3, 4, 9)
	r.RandomizeState()
	out := make([]float64, g.NumWeights())
	r.WeightStats(out)
	if n := testing.AllocsPerRun(20, func() { r.WeightStats(out) }); n != 0 {
		t.Fatalf("WeightStats allocates %v times per call, want 0", n)
	}
}

// TestReplicaOnPatchedGraph composes the replica engine with the PR 2
// patch path: replicas over a patched graph (shared immutable pool
// lineage) must agree with a sequential chain over the same graph.
func TestReplicaOnPatchedGraph(t *testing.T) {
	g := chainGraph(80, 0.5)
	p := factor.NewPatch(g)
	w := p.AddWeight(0.8)
	nv := p.AddVar()
	gi := p.AddGroup(nv, w, factor.Ratio)
	p.AddGrounding(gi, []factor.Literal{{Var: factor.VarID(2)}})
	patched := p.Apply()

	seq := New(patched, 3)
	seq.RandomizeState()
	want := seq.Marginals(50, 4000)

	r := NewReplica(patched, 4, 8, 17)
	r.RandomizeState()
	got := r.Marginals(50, 1000)
	var mad float64
	for v := range want {
		mad += math.Abs(want[v] - got[v])
	}
	mad /= float64(len(want))
	if mad > 0.03 {
		t.Fatalf("patched-graph replica marginals differ: MAD %.4f", mad)
	}
}
