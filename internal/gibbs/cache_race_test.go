package gibbs_test

// Exercises the conditional-cache machinery under the race detector (the
// `make race` CI lane runs this package with -race): sharded sweeps whose
// workers fill/invalidate shard-local cache windows concurrently, the
// driver's cross-shard invalidation pass, mid-run weight changes (bulk
// invalidation through the weight generation), and the replica engine's
// rotating per-worker States — all over a patched graph so overflow rows
// and patched blanket links are in play.

import (
	"testing"

	"deepdive/internal/gibbs"
)

func TestParallelCacheRace(t *testing.T) {
	g := goldenPatched()
	p := gibbs.NewParallel(g, 4, 9)
	p.RandomizeState()
	p.Run(10)
	g.SetWeight(0, 2.0) // mid-run weight change: caches must bulk-invalidate
	p.Run(5)
	if m := p.Marginals(5, 20); len(m) != g.NumVars() {
		t.Fatalf("marginals length %d, want %d", len(m), g.NumVars())
	}
}

func TestReplicaCacheRace(t *testing.T) {
	g := goldenPatched()
	r := gibbs.NewReplica(g, 4, 3, 9)
	r.RandomizeState()
	r.Run(10) // crosses merge points: states rotate around the ring
	g.SetWeight(0, -1.5)
	r.Run(5)
	stats := make([]float64, g.NumWeights())
	r.WeightStats(stats)
	if m := r.Marginals(3, 12); len(m) != g.NumVars() {
		t.Fatalf("marginals length %d, want %d", len(m), g.NumVars())
	}
}
