package gibbs

// Race coverage for sampling over in-place patched graphs (run under
// `go test -race ./internal/gibbs/...`, the CI race job): the sharded
// sampler's workers read the patched overflow rows and tombstone stamps
// concurrently, and a chain is patched mid-run and resampled on a fresh
// sampler.

import (
	"math"
	"testing"

	"deepdive/internal/factor"
)

// patchChain patches g in place and returns it: a few new variables
// coupled into the chain through new groups, one grounding appended to an
// existing group, and one frozen grounding tombstoned.
func patchChain(g *factor.Graph) *factor.Graph {
	p := factor.NewPatch(g)
	w := p.AddWeight(0.8)
	for i := 0; i < 3; i++ {
		nv := p.AddVar()
		gi := p.AddGroup(nv, w, factor.Linear)
		p.AddGrounding(gi, []factor.Literal{{Var: factor.VarID(2 * i)}})
	}
	p.AddGrounding(0, []factor.Literal{{Var: factor.VarID(5), Neg: true}})
	p.RemoveGrounding(1)
	return p.Apply()
}

// TestParallelSweepOnPatchedGraph shards sweeps over a patched graph and
// requires the marginals to agree with a sequential chain over the
// compacted rebuild of the same graph — the patched layout must be
// race-free under concurrent workers and present the same distribution.
func TestParallelSweepOnPatchedGraph(t *testing.T) {
	base := chainGraph(90, 0.5)
	patched := patchChain(base)
	compact := factor.NewBuilderFrom(patched).MustBuild()

	par := NewParallel(patched, 4, 19)
	par.RandomizeState()
	got := par.Marginals(50, 4000)

	seq := New(compact, 23)
	seq.RandomizeState()
	want := seq.Marginals(50, 4000)

	var mad float64
	for v := range want {
		mad += math.Abs(want[v] - got[v])
	}
	mad /= float64(len(want))
	if mad > 0.02 {
		t.Fatalf("patched-vs-compacted mean absolute marginal difference = %.4f, want <= 0.02", mad)
	}
}

// TestParallelPatchThenResample exercises the mid-run update cycle the
// incremental engine performs: sweep a chain, patch the graph between
// sweeps, and continue on a fresh sampler over the patched graph (the
// sampler's shard bounds and assignment width are sized at construction,
// so a patched graph always gets a new sampler).
func TestParallelPatchThenResample(t *testing.T) {
	g := chainGraph(70, 0.5)
	s := NewParallel(g, 4, 41)
	s.RandomizeState()
	s.Run(30)

	patched := patchChain(g)
	s2 := NewParallel(patched, 4, 43)
	// Continue from the pre-patch world: copy the old assignment into the
	// wider patched state.
	copy(s2.Assign(), s.Assign())
	s2.Run(30)

	marg := s2.Marginals(10, 500)
	if len(marg) != patched.NumVars() {
		t.Fatalf("marginal width %d, want %d", len(marg), patched.NumVars())
	}
}
