package gibbs

import (
	"context"
	"testing"

	"deepdive/internal/factor"
)

// TestChainContract holds every runtime a Runtime selects to the Chain
// contract: a context cancelled before the first sweep runs nothing and
// observes nothing (evidence entries included), collection stops at
// exactly n worlds, and StoreWorlds adds the worlds one sweep leaves — one
// per chain, one per replica.
func TestChainContract(t *testing.T) {
	g := chainGraph(40, 0.5)
	trueEv := factor.VarID(20) // chainGraph: i%17 == 3 is evidence, true at even i
	if !g.IsEvidence(trueEv) || !g.EvidenceValue(trueEv) {
		t.Fatal("test graph lost its true evidence variable")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		rt     Runtime
		worlds int // worlds one sweep leaves
	}{
		{"sequential", Runtime{Workers: 1}, 1},
		{"sharded-3", Runtime{Workers: 3}, 1},
		{"replica-3", Runtime{Replicas: 3}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := tc.rt.NewChain(g, 5).RunCtx(cancelled, 10); n != 0 {
				t.Fatalf("RunCtx on a cancelled context ran %d sweeps, want 0", n)
			}
			for v, m := range tc.rt.NewChain(g, 5).MarginalsCtx(cancelled, 0, 10) {
				if m != 0 {
					t.Fatalf("MarginalsCtx cancelled before any sweep: marginal[%d] = %v, want 0 (evidence: %v)",
						v, m, g.IsEvidence(factor.VarID(v)))
				}
			}
			if st := tc.rt.NewChain(g, 5).CollectSamplesCtx(cancelled, 0, 10); st.Len() != 0 {
				t.Fatalf("CollectSamplesCtx on a cancelled context stored %d worlds, want 0", st.Len())
			}
			if m := tc.rt.NewChain(g, 5).MarginalsCtx(context.Background(), 2, 10); m[trueEv] != 1 {
				t.Fatalf("true evidence marginal = %v, want 1", m[trueEv])
			}
			for _, n := range []int{0, 1, 7} {
				if st := tc.rt.NewChain(g, 5).CollectSamples(2, n); st.Len() != n {
					t.Fatalf("CollectSamples(2, %d) stored %d worlds", n, st.Len())
				}
			}
			c := tc.rt.NewChain(g, 5)
			c.Sweep()
			st := NewStore(g.NumVars())
			c.StoreWorlds(st)
			if st.Len() != tc.worlds {
				t.Fatalf("StoreWorlds added %d worlds, want %d", st.Len(), tc.worlds)
			}
		})
	}
}
