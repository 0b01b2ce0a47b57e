package ground

import (
	"runtime"
	"strings"
	"testing"
)

// maxAllocsPerGrounding bounds what full grounding allocates per grounding
// it produces, on the 500-sentence spouse corpus of BenchmarkGroundFullRule
// (6 000 groundings; 1.1 measured). Per grounding the corpus grounds two
// derivation bindings and one weighted one. What remains is the test
// UDF's own garbage and the amortised growth of the slabs and tables:
// relation rows and their index chains, variable keys, group, grounding
// and literal records are all slab entries found through open-addressing
// tables. A weighted binding that builds its keys as strings, or a record
// per group or grounding, puts it back above 20.
const maxAllocsPerGrounding = 14

// maxRetainedObjectsPerGrounding bounds the heap objects a grounded
// grounder keeps alive per grounding of the 4× spouse corpus and per
// grounding added from 1× to 4× (0.013 and 0.003 measured). A grounder
// that keeps a string key per variable and grounding, or a grounding list
// per group, keeps about 3.
const maxRetainedObjectsPerGrounding = 0.05

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

// TestGrounderRetainedObjects counts the heap objects a grounder keeps
// alive once it has grounded the spouse corpus, at 1× and 4× the sentences
// (4 mentions each), per grounding. Variables, groups and groundings are
// records in slabs behind open-addressing tables, so what a grounder holds
// is a fixed set of slabs and tables plus one string per weight key: the
// count must not grow with the groundings.
func TestGrounderRetainedObjects(t *testing.T) {
	retained := func(sentences int) (objects float64, groundings int) {
		base := corpusBase(sentences, 4)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g := newSpouseGrounder(t, base)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(base)
		runtime.KeepAlive(g)
		return float64(after.HeapObjects) - float64(before.HeapObjects), g.NumGroundings()
	}
	o1, n1 := retained(500)
	o4, n4 := retained(2000)
	growth := (o4 - o1) / float64(n4-n1)
	t.Logf("1×: %.0f objects for %d groundings (%.3f each); 4×: %.0f for %d (%.3f each); %.4f per added grounding",
		o1, n1, o1/float64(n1), o4, n4, o4/float64(n4), growth)
	if per := o4 / float64(n4); per > maxRetainedObjectsPerGrounding || growth > maxRetainedObjectsPerGrounding {
		t.Fatalf("a grounder keeps %.4f objects per grounding, %.4f per added one, want ≤ %v", per, growth, maxRetainedObjectsPerGrounding)
	}
}
