package ground

// Ground-level differential test for in-place updates: random
// ground.Update sequences — new documents, retracted and re-asserted
// mentions, knowledge-base (supervision) changes, and new rules — are
// applied to two grounders over the same program, one on the default
// in-place path (factor.Patch splicing) and one forced onto the
// full-rebuild lesion path with SetInPlaceUpdates(false), and after every
// step the two graphs must be semantically identical. Failures name the
// subtest seed; re-run with -run
// 'TestApplyUpdateInPlaceMatchesRebuild/seed=N' to reproduce.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/persist"
)

// patchedPair is one grounder under test plus its own copy of the
// evolving rule source (rules are parsed per grounder so the two never
// share AST nodes).
type patchedPair struct {
	g   *Grounder
	src string
}

func (pp *patchedPair) apply(t *testing.T, u Update, ruleSrc string) *Delta {
	t.Helper()
	if ruleSrc != "" {
		full, err := datalog.Parse(pp.src + "\n" + ruleSrc)
		if err != nil {
			t.Fatalf("new rule parse: %v", err)
		}
		u.NewRules = full.Rules[len(pp.g.Program().Rules):]
		pp.src += "\n" + ruleSrc
	}
	d, err := pp.g.ApplyUpdate(u)
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	return d
}

func TestApplyUpdateInPlaceMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runInPlaceDifferential(t, seed, 0) // default compaction threshold
		})
	}
	// An aggressive threshold forces a compacting rebuild after nearly
	// every update; the results must still match.
	t.Run("seed=1_eager_compaction", func(t *testing.T) {
		runInPlaceDifferential(t, 1, 0.01)
	})
}

func runInPlaceDifferential(t *testing.T, seed int64, compactThresh float64) {
	rng := rand.New(rand.NewSource(seed))
	patched := &patchedPair{g: newSpouseGrounder(t, spouseBase()), src: spouseSrc}
	rebuild := &patchedPair{g: newSpouseGrounder(t, spouseBase()), src: spouseSrc}
	patched.g.SetInPlaceUpdates(true)
	rebuild.g.SetInPlaceUpdates(false) // the rebuild lesion is the oracle
	if compactThresh > 0 {
		patched.g.SetCompactionThreshold(compactThresh)
	}
	// Prime the cached graphs (the in-place path patches the last graph).
	patched.g.Graph()
	rebuild.g.Graph()

	gen := newSpouseStream()
	sawPatched := false
	for step := 0; step < 25; step++ {
		u, ruleSrc := gen.next(rng)

		dp := patched.apply(t, cloneUpdate(u), ruleSrc)
		dr := rebuild.apply(t, cloneUpdate(u), ruleSrc)
		if len(dp.NewVars) != len(dr.NewVars) || len(dp.AddedGroups) != len(dr.AddedGroups) ||
			len(dp.ModifiedGroups) != len(dr.ModifiedGroups) {
			t.Fatalf("seed %d step %d: deltas diverge: %+v vs %+v", seed, step, dp, dr)
		}

		requireCounters(t, patched.g)
		if n := patched.g.NumGroundings(); n != patched.g.Graph().NumGroundings() {
			t.Fatalf("seed %d step %d: grounder counts %d visible groundings, its graph %d", seed, step, n, patched.g.Graph().NumGroundings())
		}
		ga := patched.g.Graph()
		gb := rebuild.g.Graph()
		if ga.Patched() {
			sawPatched = true
		}
		if diffs := factor.DiffGraphs(ga, gb, 3, seed*100+int64(step)); len(diffs) > 0 {
			msg := ""
			for _, d := range diffs {
				msg += "  " + d + "\n"
			}
			t.Fatalf("seed %d step %d: in-place graph != rebuilt graph:\n%s", seed, step, msg)
		}
	}
	if compactThresh == 0 && !sawPatched {
		t.Fatalf("seed %d: in-place path never produced a patched graph", seed)
	}
}

// spouseStream generates the randomized update stream the in-place vs
// rebuild differential test drives the spouse program with: new
// documents, retracted and re-asserted mentions, supervision changes, and
// occasional new inference rules.
type spouseStream struct {
	docID, mentionID, ruleID int
	mentions                 []spouseMention // Mentions tuples currently present
	removed                  []spouseMention // previously deleted (candidates for re-assertion)
	kbCount                  map[string]int  // Married derivation counts
}

type spouseMention struct{ sid, mid string }

func newSpouseStream() *spouseStream {
	return &spouseStream{kbCount: map[string]int{"Barack\x00Michelle": 1}}
}

func (g *spouseStream) next(rng *rand.Rand) (Update, string) {
	words := []string{"met", "wed", "in", "Paris", "on", "Sunday", "quietly", "again"}
	entities := []string{"Barack", "Michelle", "Malia", "Sasha"}
	u := Update{Inserts: map[string][]db.Tuple{}, Deletes: map[string][]db.Tuple{}}
	ruleSrc := ""
	for op := 0; op < 1+rng.Intn(3); op++ {
		switch rng.Intn(5) {
		case 0: // new document with two person mentions (ΔV + ΔF)
			g.docID++
			sid := fmt.Sprintf("d%d", g.docID)
			content := ""
			for w := 0; w < 3+rng.Intn(5); w++ {
				content += words[rng.Intn(len(words))] + " "
			}
			u.Inserts["Sentence"] = append(u.Inserts["Sentence"], db.Tuple{sid, content})
			for k := 0; k < 2; k++ {
				g.mentionID++
				mid := fmt.Sprintf("x%d", g.mentionID)
				u.Inserts["PersonCandidate"] = append(u.Inserts["PersonCandidate"], db.Tuple{sid, mid})
				u.Inserts["Mentions"] = append(u.Inserts["Mentions"], db.Tuple{sid, mid})
				u.Inserts["EL"] = append(u.Inserts["EL"], db.Tuple{mid, entities[rng.Intn(len(entities))]})
				g.mentions = append(g.mentions, spouseMention{sid, mid})
			}
		case 1: // retract a mention (tombstoned groundings)
			if len(g.mentions) == 0 {
				continue
			}
			i := rng.Intn(len(g.mentions))
			m := g.mentions[i]
			g.mentions = append(g.mentions[:i], g.mentions[i+1:]...)
			g.removed = append(g.removed, m)
			u.Deletes["Mentions"] = append(u.Deletes["Mentions"], db.Tuple{m.sid, m.mid})
		case 2: // re-assert a retracted mention (fresh grounding after tombstone)
			if len(g.removed) == 0 {
				continue
			}
			i := rng.Intn(len(g.removed))
			m := g.removed[i]
			g.removed = append(g.removed[:i], g.removed[i+1:]...)
			g.mentions = append(g.mentions, m)
			u.Inserts["Mentions"] = append(u.Inserts["Mentions"], db.Tuple{m.sid, m.mid})
		case 3: // knowledge-base (supervision) change
			a := entities[rng.Intn(len(entities))]
			b := entities[rng.Intn(len(entities))]
			key := a + "\x00" + b
			if g.kbCount[key] == 0 || rng.Intn(2) == 0 {
				u.Inserts["Married"] = append(u.Inserts["Married"], db.Tuple{a, b})
				g.kbCount[key]++
			} else {
				u.Deletes["Married"] = append(u.Deletes["Married"], db.Tuple{a, b})
				g.kbCount[key]--
			}
		case 4: // new inference rule (ΔF over every candidate)
			if ruleSrc != "" || rng.Intn(3) != 0 {
				continue
			}
			g.ruleID++
			ruleSrc = fmt.Sprintf(
				"I%d: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) weight = %.2f.",
				g.ruleID, rng.Float64()-0.5)
		}
	}
	return u, ruleSrc
}

// cloneUpdate deep-copies an update so the two grounders never share
// tuple storage.
func cloneUpdate(u Update) Update {
	c := Update{Inserts: map[string][]db.Tuple{}, Deletes: map[string][]db.Tuple{}}
	for rel, ts := range u.Inserts {
		for _, tp := range ts {
			c.Inserts[rel] = append(c.Inserts[rel], tp.Clone())
		}
	}
	for rel, ts := range u.Deletes {
		for _, tp := range ts {
			c.Deletes[rel] = append(c.Deletes[rel], tp.Clone())
		}
	}
	return c
}

// TestApplyUpdatePatchCost pins the O(Δ) claim structurally: an update
// touching one document patches the cached graph in place, splicing into
// its frozen adjacency pool through overflow rows (same backing array,
// same length) and appending to its literal pool, rather than rebuilding.
func TestApplyUpdatePatchCost(t *testing.T) {
	g := newSpouseGrounder(t, spouseBase())
	g.SetInPlaceUpdates(true)
	// The toy graph is tiny, so even a one-document delta trips the default
	// compaction threshold; raise it to observe the pure patch path.
	g.SetCompactionThreshold(0.9)
	before := g.Graph()
	csrBefore := before.CSR()
	varsBefore, gndsBefore := before.NumVars(), before.NumGroundings()

	_, err := g.ApplyUpdate(Update{Inserts: map[string][]db.Tuple{
		"Sentence":        {{"s9", "Pat and Sam wed"}},
		"PersonCandidate": {{"s9", "m8"}, {"s9", "m9"}},
		"Mentions":        {{"s9", "m8"}, {"s9", "m9"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	after := g.Graph()
	if after != before {
		t.Fatal("the update replaced the graph instead of patching it in place")
	}
	if !after.Patched() {
		t.Fatal("update did not take the patch path")
	}
	csrAfter := after.CSR()
	// The frozen adjacency pool is spliced through overflow rows, never
	// rewritten or appended to: the backing array and its length are kept.
	if &csrAfter.AdjGroups[0] != &csrBefore.AdjGroups[0] || len(csrAfter.AdjGroups) != len(csrBefore.AdjGroups) {
		t.Fatal("patch rewrote the adjacency pool instead of splicing")
	}
	// The literal pool grows append-style.
	if len(csrAfter.Lits) <= len(csrBefore.Lits) {
		t.Fatalf("literal pool did not grow: %d -> %d", len(csrBefore.Lits), len(csrAfter.Lits))
	}
	if after.NumVars() <= varsBefore || after.NumGroundings() <= gndsBefore {
		t.Fatalf("update added no vars or groundings: %d -> %d vars, %d -> %d groundings",
			varsBefore, after.NumVars(), gndsBefore, after.NumGroundings())
	}
}

// TestPatchOrRebuildDecidedBeforePatching pins the commit's choice between
// patching and rebuilding. A delta whose patch would take the graph past
// the compaction threshold leaves the cached graph as it was — unpatched,
// its epoch and fragmentation unmoved — and dirty, and the graph Graph then
// rebuilds is the one a patch followed by the compacting rebuild gives,
// byte for byte. With the threshold at exactly the fragmentation that
// patch reaches, the same delta is patched in place.
func TestPatchOrRebuildDecidedBeforePatching(t *testing.T) {
	doc := func() Update {
		return Update{Inserts: map[string][]db.Tuple{
			"Sentence":        {{"s9", "Pat and Sam wed"}},
			"PersonCandidate": {{"s9", "m8"}, {"s9", "m9"}},
			"Mentions":        {{"s9", "m8"}, {"s9", "m9"}},
			"EL":              {{"m8", "Pat"}, {"m9", "Sam"}},
		}, Deletes: map[string][]db.Tuple{
			"Mentions": {{"s1", "m1"}},
		}}
	}
	grounder := func(thresh float64) (*Grounder, *factor.Graph) {
		g := newSpouseGrounder(t, spouseBase())
		g.SetCompactionThreshold(thresh)
		return g, g.Graph()
	}
	image := func(g *factor.Graph) []byte {
		var b persist.Buf
		g.AppendSnapshot(&b)
		return b.Bytes()
	}

	// The oracle: patch whatever the fragmentation, then rebuild.
	oracle, oracleBefore := grounder(0.999)
	if _, err := oracle.ApplyUpdate(doc()); err != nil {
		t.Fatal(err)
	}
	if oracle.Graph() != oracleBefore || !oracleBefore.Patched() {
		t.Fatal("the oracle did not patch its graph in place")
	}
	reached := oracleBefore.Fragmentation()
	if reached <= DefaultCompactionThreshold {
		t.Fatalf("the delta's patch reaches fragmentation %.3f, want past the default threshold %.2f", reached, DefaultCompactionThreshold)
	}
	oracle.graphDirty = true
	want := oracle.Graph()

	for _, c := range []struct {
		name   string
		thresh float64
	}{{"default threshold", 0}, {"threshold just under the patch", math.Nextafter(reached, 0)}} {
		g, before := grounder(c.thresh)
		epoch, frag, nGnd := before.Epoch(), before.Fragmentation(), before.NumGroundings()
		if _, err := g.ApplyUpdate(doc()); err != nil {
			t.Fatal(err)
		}
		if !g.graphDirty || g.lastGraph != before {
			t.Fatalf("%s: the commit did not leave the cached graph dirty", c.name)
		}
		if before.Epoch() != epoch || before.Fragmentation() != frag || before.NumGroundings() != nGnd {
			t.Fatalf("%s: the commit patched a graph it then discards (epoch %d→%d, fragmentation %.3f→%.3f)",
				c.name, epoch, before.Epoch(), frag, before.Fragmentation())
		}
		got := g.Graph()
		if got == before || got.Patched() {
			t.Fatalf("%s: Graph did not rebuild", c.name)
		}
		if diffs := factor.DiffGraphs(got, want, 3, 1); len(diffs) > 0 {
			t.Fatalf("%s: rebuilt graph != patched-then-rebuilt graph: %v", c.name, diffs)
		}
		if !bytes.Equal(image(got), image(want)) {
			t.Fatalf("%s: rebuilt graph's image differs from the patched-then-rebuilt one's", c.name)
		}
	}

	// At the threshold itself the patch stays within it: patched in place.
	g, before := grounder(reached)
	if _, err := g.ApplyUpdate(doc()); err != nil {
		t.Fatal(err)
	}
	if g.graphDirty || g.Graph() != before || !before.Patched() || before.Fragmentation() != reached {
		t.Fatalf("a delta at the threshold was not patched in place (dirty %v, fragmentation %.3f, want %.3f)",
			g.graphDirty, before.Fragmentation(), reached)
	}
}
