package deepdive_test

// The incremental snapshot skeleton against its from-scratch oracle: after
// every update of a generated stream the served snapshot — derived from its
// predecessor and the update's delta — must answer every reader call as a
// snapshot rebuilt from the grounder's tables does, and a snapshot held
// from earlier epochs must keep answering what it answered when published,
// while readers run against the writer.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"deepdive"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

// snapshotAnswers is everything a reader can ask one snapshot.
type snapshotAnswers struct {
	Relations   []string
	Stats       deepdive.GraphStats
	Facts       map[string][]deepdive.Fact
	Candidates  map[string][]deepdive.Tuple
	Extractions map[string][]deepdive.Extraction
	Marginals   map[string][]float64 // per relation, Marginal of every candidate, in order
}

func answersOf(t *testing.T, s *deepdive.Snapshot) snapshotAnswers {
	t.Helper()
	a := snapshotAnswers{
		Relations: s.Relations(), Stats: s.Stats(),
		Facts: map[string][]deepdive.Fact{}, Candidates: map[string][]deepdive.Tuple{},
		Extractions: map[string][]deepdive.Extraction{}, Marginals: map[string][]float64{},
	}
	// What publication attaches: the engine's state, not the skeleton's.
	a.Stats.Autopilot, a.Stats.Inferred, a.Stats.Materialized = nil, deepdive.Solved{}, deepdive.Solved{}
	for _, rel := range a.Relations {
		a.Facts[rel], a.Candidates[rel], a.Extractions[rel] = s.Facts(rel), s.Candidates(rel), s.Extractions(rel, 0.5)
		if len(a.Facts[rel]) == 0 || len(a.Facts[rel]) != len(a.Candidates[rel]) {
			t.Fatalf("%s: %d facts, %d candidates", rel, len(a.Facts[rel]), len(a.Candidates[rel]))
		}
		for i, c := range a.Candidates[rel] {
			p, ok := s.Marginal(rel, c)
			if f := a.Facts[rel][i]; !reflect.DeepEqual(f.Tuple, c) || ok != f.Known || p != f.Probability {
				t.Fatalf("%s%v: Marginal = %v, %v but Facts has %+v", rel, c, p, ok, f)
			}
			a.Marginals[rel] = append(a.Marginals[rel], p)
		}
	}
	return a
}

// checkAgainstRebuild compares the served snapshot with the oracle's.
func checkAgainstRebuild(t *testing.T, kb *deepdive.KB, step string) snapshotAnswers {
	t.Helper()
	got, want := answersOf(t, kb.Snapshot()), answersOf(t, kb.RebuiltSnapshot())
	if !reflect.DeepEqual(got, want) {
		for _, rel := range want.Relations {
			if !reflect.DeepEqual(got.Facts[rel], want.Facts[rel]) {
				t.Fatalf("%s: %s: served facts\n%v\nrebuilt\n%v", step, rel, got.Facts[rel], want.Facts[rel])
			}
		}
		t.Fatalf("%s: served snapshot differs from the rebuild: relations %v vs %v, stats %+v vs %+v", step, got.Relations, want.Relations, got.Stats, want.Stats)
	}
	// A tuple that is no candidate has no marginal on either.
	if _, ok := kb.Snapshot().Marginal(want.Relations[0], deepdive.Tuple{"no", "such"}); ok {
		t.Fatalf("%s: a marginal for a tuple that was never a candidate", step)
	}
	return got
}

func TestSnapshotSkeletonDifferential(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { skeletonDifferential(t, seed) })
	}
}

func skeletonDifferential(t *testing.T, seed int64) {
	const updates = 56
	rng := rand.New(rand.NewSource(seed))
	w := newWireCorpus(t, seed, 1, updates)
	dir := t.TempDir()
	last := len(kbc.IterationNames) - 1 // S2 arrives as the stream's rule update
	kb := w.open(t, last, 0, deepdive.WithDataDir(dir))
	_, err := kb.Materialize(ctx)
	must(t, err)
	must(t, kb.Checkpoint(ctx))

	// Readers against the writer: every call a reader can make, on whatever
	// snapshot is current, for as long as the stream runs. They follow the
	// KB through an atomic pointer because the test reopens it below.
	var live atomic.Pointer[deepdive.KB]
	live.Store(kb)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := live.Load().Snapshot()
				for _, rel := range s.Relations() {
					for _, f := range s.Facts(rel) {
						if p, ok := s.Marginal(rel, f.Tuple); ok != f.Known || p != f.Probability {
							t.Errorf("epoch %d: %s%v reads %v, %v; Facts says %+v", s.Epoch(), rel, f.Tuple, p, ok, f)
							return
						}
					}
					s.Extractions(rel, 0.9)
				}
			}
		}()
	}
	defer func() { close(stop); readers.Wait() }()

	// Supervision the stream flips: positive pairs it retracts and later
	// restores, negative pairs it adds.
	type pair struct {
		rel string
		t   deepdive.Tuple
	}
	var kbPairs []pair
	for _, r := range w.sys.Spec.Relations {
		for _, t := range w.base["KB_"+r.Name] {
			kbPairs = append(kbPairs, pair{r.Name, t})
		}
	}
	if len(kbPairs) < 4 {
		t.Fatalf("%d distant-supervision pairs to flip", len(kbPairs))
	}
	retracted := map[int]bool{}
	var deletedDocs []map[string][]deepdive.Tuple

	type held struct {
		snap *deepdive.Snapshot
		said snapshotAnswers
	}
	var holds []held
	apply := func(step string, u deepdive.Update) {
		t.Helper()
		_, err := kb.Apply(ctx, u)
		must(t, err)
		holds = append(holds, held{kb.Snapshot(), checkAgainstRebuild(t, kb, step)})
	}
	for i, u := range w.stream {
		apply(fmt.Sprint("update ", i), u)
		if u.Deletes != nil {
			deletedDocs = append(deletedDocs, u.Deletes)
		}
		switch {
		case i == 20:
			apply("rule update S2", deepdive.Update{RuleSource: kbc.IterationRules(w.sys, "S2")})
		case i == 30:
			// Forced compaction: the checkpoint rebuilds the graph and the
			// skeleton with it; the stream goes on from the rebuilt one.
			must(t, kb.Checkpoint(ctx))
			checkAgainstRebuild(t, kb, "checkpoint")
		case i%7 == 5 && len(deletedDocs) > 0:
			// Re-insert a deleted document: its variables revive.
			d := rng.Intn(len(deletedDocs))
			apply(fmt.Sprint("re-insert after update ", i), deepdive.Update{Inserts: deletedDocs[d]})
			deletedDocs = append(deletedDocs[:d], deletedDocs[d+1:]...)
		case i%5 == 2:
			k := rng.Intn(len(kbPairs))
			flip := deepdive.Update{Deletes: map[string][]deepdive.Tuple{"KB_" + kbPairs[k].rel: {kbPairs[k].t}}}
			if retracted[k] {
				flip = deepdive.Update{Inserts: flip.Deletes}
			}
			retracted[k] = !retracted[k]
			apply(fmt.Sprint("supervision flip after update ", i), flip)
		case i%5 == 4:
			k := rng.Intn(len(kbPairs))
			apply(fmt.Sprint("negative supervision after update ", i),
				deepdive.Update{Inserts: map[string][]deepdive.Tuple{"NegKB_" + kbPairs[k].rel: {kbPairs[k].t}}})
		}
	}
	// Every snapshot held along the way still says what it said.
	for _, h := range holds {
		if now := answersOf(t, h.snap); !reflect.DeepEqual(now, h.said) {
			t.Fatalf("the snapshot of epoch %d changed its answers after publication", h.snap.Epoch())
		}
	}

	// The same on a KB restored from the checkpoint and the WAL tail after
	// it: what it serves, and what it serves after further updates.
	final := answersOf(t, kb.Snapshot())
	must(t, kb.CloseNow())
	opts := []deepdive.Option{deepdive.WithSeed(w.seed), deepdive.WithDataDir(dir)}
	for name, udf := range kbc.UDFs() {
		opts = append(opts, deepdive.WithUDF(name, udf))
	}
	kb, err = deepdive.OpenKB(kbc.Program(w.sys, factor.Ratio, last), opts...)
	must(t, err)
	live.Store(kb)
	t.Cleanup(func() { kb.CloseNow() })
	if !kb.Recovered() {
		t.Fatal("the reopened KB did not recover from its data directory")
	}
	if got := checkAgainstRebuild(t, kb, "restored"); !reflect.DeepEqual(got.Facts, final.Facts) {
		t.Fatal("the restored KB serves other facts than the one it was restored from")
	}
	for i, d := range deletedDocs {
		_, err := kb.Apply(ctx, deepdive.Update{Inserts: d})
		must(t, err)
		checkAgainstRebuild(t, kb, fmt.Sprint("restored, re-insert ", i))
	}
}

// TestSnapshotSkeletonCompacts: facts that stop being live stay in their
// relation's storage, so a KB that retracts most of what it asserted has
// its skeleton rebuilt compact along the way — the bounded tombstone
// share — and serves the same answers before, across and after the
// rebuild, a revival of a compacted-away fact included.
func TestSnapshotSkeletonCompacts(t *testing.T) {
	kb := spouseKB(t)
	const docs = 40
	for i := 0; i < docs; i++ {
		_, err := kb.Apply(ctx, docUpdate(i))
		must(t, err)
		checkAgainstRebuild(t, kb, fmt.Sprint("insert ", i))
	}
	held := kb.Snapshot()
	said := answersOf(t, held)
	for i := 0; i < docs-2; i++ {
		_, err := kb.Apply(ctx, deepdive.Update{Deletes: docUpdate(i).Inserts})
		must(t, err)
		checkAgainstRebuild(t, kb, fmt.Sprint("delete ", i))
	}
	if got, want := len(kb.Snapshot().Candidates("HasSpouse")), len(said.Candidates["HasSpouse"])-2*(docs-2); got != want {
		t.Fatalf("%d candidates after the deletes, want %d", got, want)
	}
	for i := 0; i < 4; i++ {
		_, err := kb.Apply(ctx, docUpdate(i))
		must(t, err)
		checkAgainstRebuild(t, kb, fmt.Sprint("re-insert ", i))
	}
	if now := answersOf(t, held); !reflect.DeepEqual(now, said) {
		t.Fatal("the snapshot held across the rebuild changed its answers")
	}
}
