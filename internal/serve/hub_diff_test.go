package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The change-set diff against the full diff, over generated publication
// streams: every subscriber is driven twice from the same starting state —
// once through diff, which visits the facts the views report changed, once
// through diffAll, which visits them all — and must write byte-identical
// events and end every step with the same sent state.

// genFact is one fact of the generated KB; its id fixes its place in its
// relation's order, as a variable id does.
type genFact struct {
	id   int
	rel  string
	fact Fact
	live bool
}

// genView is one publication: the facts as of its epoch, and the ids each
// of the last genWindow publications changed (nil = everything may have).
type genView struct {
	epoch   uint64
	facts   []genFact        // by id
	changes map[uint64][]int // epoch → changed ids; absent = too old, nil = everything
}

const genWindow = 6

func (v *genView) Epoch() uint64 { return v.epoch }
func (v *genView) Stats() any    { return nil }
func (v *genView) Relations() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range v.facts {
		if f.live && !seen[f.rel] {
			seen[f.rel] = true
			out = append(out, f.rel)
		}
	}
	sort.Strings(out)
	return out
}
func (v *genView) Facts(rel string) []Fact {
	var out []Fact
	for _, f := range v.facts {
		if f.live && f.rel == rel {
			out = append(out, f.fact)
		}
	}
	return out
}
func (v *genView) Marginal(string, []string) (float64, bool) { return 0, false }
func (v *genView) ChangedSince(since uint64) ([]FactChange, bool) {
	ids := map[int]bool{}
	for e := since + 1; e <= v.epoch; e++ {
		ch, ok := v.changes[e]
		if !ok || ch == nil {
			return nil, false
		}
		for _, id := range ch {
			ids[id] = true
		}
	}
	var out []FactChange
	for _, f := range v.facts {
		if ids[f.id] {
			out = append(out, FactChange{Relation: f.rel, Fact: f.fact, Live: f.live})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Relation < out[j].Relation })
	return out, true
}

// genStream publishes n views: each step gives birth to facts, kills and
// revives some, moves probabilities by steps small and large, flips
// evidence and known, and now and then empties a relation or publishes
// without a change set.
func genStream(rng *rand.Rand, n int) []*genView {
	rels := []string{"Alpha", "Beta", "Gamma"}
	var facts []genFact
	changes := map[uint64][]int{}
	var views []*genView
	birth := func() int {
		id := len(facts)
		facts = append(facts, genFact{
			id: id, rel: rels[rng.Intn(len(rels))], live: true,
			fact: Fact{Tuple: []string{fmt.Sprint("e", id%7), fmt.Sprint("t", id)}, Probability: rng.Float64(), Known: rng.Intn(6) > 0},
		})
		return id
	}
	for i := 0; i < 12; i++ {
		birth()
	}
	for epoch := uint64(1); epoch <= uint64(n); epoch++ {
		var changed []int
		for k := rng.Intn(4); k > 0; k-- {
			changed = append(changed, birth())
		}
		for k := rng.Intn(6); k > 0; k-- {
			f := &facts[rng.Intn(len(facts))]
			switch rng.Intn(6) {
			case 0:
				f.live = !f.live
			case 1:
				f.fact.Evidence = !f.fact.Evidence
				f.fact.Known = true
				f.fact.Probability = float64(rng.Intn(2))
			case 2:
				f.fact.Known = !f.fact.Known
			case 3:
				f.fact.Probability += (rng.Float64() - 0.5) * 0.02 // under most floors
			default:
				f.fact.Probability = rng.Float64()
			}
			changed = append(changed, f.id)
		}
		if rng.Intn(15) == 0 { // a relation loses every fact
			rel := rels[rng.Intn(len(rels))]
			for i := range facts {
				if facts[i].rel == rel && facts[i].live {
					facts[i].live = false
					changed = append(changed, i)
				}
			}
		}
		if rng.Intn(12) == 0 {
			changed = nil // a publication that cannot say what it changed
			for i := range facts {
				if rng.Intn(3) == 0 {
					facts[i].fact.Probability = rng.Float64()
				}
			}
		} else if changed == nil {
			changed = []int{}
		}
		changes[epoch] = changed
		v := &genView{epoch: epoch, facts: append([]genFact(nil), facts...), changes: map[uint64][]int{}}
		for e := epoch; e+genWindow > epoch && e >= 1; e-- {
			v.changes[e] = changes[e]
		}
		views = append(views, v)
	}
	return views
}

// genSubscriber is one subscription driven down both diff paths.
type genSubscriber struct {
	filter           subFilter
	sentCS, sentFull map[string]map[string]sentFact
	diffed           uint64
}

func subscribeAt(v *genView, f subFilter) *genSubscriber {
	s := &genSubscriber{filter: f, sentCS: map[string]map[string]sentFact{}, sentFull: map[string]map[string]sentFact{}, diffed: v.epoch}
	collectSent(v, &s.filter, s.sentCS)
	collectSent(v, &s.filter, s.sentFull)
	return s
}

// step diffs the subscriber against v on both paths and reports whether
// the change-set path was the one diff took.
func (s *genSubscriber) step(t *testing.T, v *genView) bool {
	t.Helper()
	_, viaChanges := v.ChangedSince(s.diffed)
	got, _ := json.Marshal(diff(v, &s.filter, s.sentCS, s.diffed))
	want, _ := json.Marshal(diffAll(v, &s.filter, s.sentFull))
	if string(got) != string(want) {
		t.Fatalf("epoch %d (last diffed at %d, filter %+v):\nchange-set diff %s\nfull diff       %s", v.epoch, s.diffed, s.filter, got, want)
	}
	for rel, m := range s.sentFull {
		if len(m) == 0 {
			delete(s.sentFull, rel)
		}
	}
	for rel, m := range s.sentCS {
		if len(m) == 0 {
			delete(s.sentCS, rel)
		}
	}
	if !reflect.DeepEqual(s.sentCS, s.sentFull) {
		t.Fatalf("epoch %d: sent states diverged:\nchange-set %v\nfull       %v", v.epoch, s.sentCS, s.sentFull)
	}
	s.diffed = v.epoch
	return viaChanges
}

func TestChangeSetDiffMatchesFullDiff(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		views := genStream(rng, 120)
		filters := []subFilter{
			{},
			{minDelta: 0.05},
			{minDelta: 0.3},
			{rels: map[string]bool{"Beta": true}},
			{rels: map[string]bool{"Alpha": true, "Gamma": true}, minDelta: 0.01},
			{rels: map[string]bool{"Alpha": true}, tupleKey: factKey(views[0].facts[0].fact.Tuple)},
		}
		var subs []*genSubscriber
		for _, f := range filters {
			subs = append(subs, subscribeAt(views[0], f))
		}
		stalled := subscribeAt(views[0], subFilter{minDelta: 0.02})
		viaChanges, viaFull := 0, 0
		count := func(cs bool) {
			if cs {
				viaChanges++
			} else {
				viaFull++
			}
		}
		for i, v := range views[1:] {
			for k, s := range subs {
				// Subscriber k wakes for most publications and sleeps through
				// the rest: the next diff then spans the skipped epochs.
				if rng.Intn(4+k) > 0 {
					count(s.step(t, v))
				}
			}
			if i%40 == 39 { // a stalled client: far beyond the change window
				count(stalled.step(t, v))
			}
			if i%10 == 9 {
				// Last-Event-ID resume: the client's state is rebuilt from the
				// held view of an earlier epoch and caught up in one diff.
				back := 1 + rng.Intn(2*genWindow)
				if back > i+1 {
					back = i + 1
				}
				r := subscribeAt(views[i+1-back], filters[rng.Intn(len(filters))])
				count(r.step(t, v))
			}
		}
		if viaChanges == 0 || viaFull == 0 || viaChanges < 5*viaFull {
			t.Fatalf("seed %d: %d diffs by change set, %d in full: the stream should exercise both, mostly the first", seed, viaChanges, viaFull)
		}
	}
}
