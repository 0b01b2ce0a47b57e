package ground

import (
	"strings"
	"testing"
)

// maxAllocsPerGrounding bounds what full grounding allocates per grounding
// it produces, on the 500-sentence spouse corpus of BenchmarkGroundFullRule
// (6 000 groundings; 4.1 measured). Per grounding the corpus grounds two
// derivation bindings and one weighted one. What remains is interned
// state — a variable's and a grounding's fixed-width key — plus the test
// UDF's own garbage and the amortised growth of the tables; relation rows,
// their index chains, the delta lists' rows and group, grounding and
// literal records come from slabs. A weighted binding that builds its keys
// as strings, or a record per group or grounding, puts it back above 20.
const maxAllocsPerGrounding = 14

func TestGroundAllocationsPerGrounding(t *testing.T) {
	allocs, g := groundingAllocs(t, corpusBase(500, 4))
	per := allocs / float64(g.NumGroundings())
	t.Logf("%.0f allocations for %d groundings: %.1f per grounding", allocs, g.NumGroundings(), per)
	if per > maxAllocsPerGrounding {
		t.Fatalf("full grounding allocates %.1f times per grounding, want ≤ %d", per, maxAllocsPerGrounding)
	}
}

// groundingAllocs is what the initial Ground of the spouse program over
// base allocates beyond loading base itself — what grounding a program of
// the same relations and no rules allocates — and one of the grounded
// grounders.
func groundingAllocs(t testing.TB, base baseData) (float64, *Grounder) {
	allocs, g := groundAllocs(t, spouseSrc, base)
	load, _ := groundAllocs(t, spouseSrc[:strings.Index(spouseSrc, "R1:")], base)
	return allocs - load, g
}

// groundAllocs averages what the initial Ground allocates over fresh
// grounders of src loaded with base — built before the count starts, so
// every counted run grounds from scratch — and returns one of them.
func groundAllocs(t testing.TB, src string, base baseData) (float64, *Grounder) {
	const runs = 3
	gs := make([]*Grounder, runs+1) // AllocsPerRun warms up with one more
	for i := range gs {
		gs[i] = loadGrounder(t, src, base, testUDFs())
	}
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		bmust(t, gs[n].Ground())
		n++
	})
	return allocs, gs[0]
}
