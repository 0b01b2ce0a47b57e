package ground

import "testing"

// maxAllocsPerGrounding bounds what full grounding allocates per grounding
// it produces, on the 500-sentence spouse corpus of BenchmarkGroundFullRule
// (6 000 groundings; 12.2 measured). Per grounding the corpus grounds two
// derivation bindings and one weighted one. What remains is interned state
// — variable and grounding keys, relation rows and their keys — plus the
// derivation heads the delta lists keep and the test UDF's own garbage;
// group, grounding and literal records come from slabs. A weighted binding
// that builds its keys as strings, or a record per group or grounding, puts
// it back above 20.
const maxAllocsPerGrounding = 14

func TestGroundAllocationsPerGrounding(t *testing.T) {
	g := newSpouseGrounder(t, corpusBase(500, 4))
	allocs := testing.AllocsPerRun(3, func() { bmust(t, g.Ground()) })
	per := allocs / float64(g.NumGroundings())
	t.Logf("%.0f allocations for %d groundings: %.1f per grounding", allocs, g.NumGroundings(), per)
	if per > maxAllocsPerGrounding {
		t.Fatalf("full grounding allocates %.1f times per grounding, want ≤ %d", per, maxAllocsPerGrounding)
	}
}
