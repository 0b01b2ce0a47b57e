package deepdive

import (
	"maps"
	"slices"
	"sort"

	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/serve"
)

// Snapshot is an immutable, point-in-time view of the knowledge base: the
// marginal probability and extraction state of every live candidate fact,
// pinned to one grounding version and one factor-graph epoch. Snapshots
// are published by the KB through an atomic pointer swap, so any number
// of reader goroutines can query concurrently — with zero locks and no
// coordination with writers — while Learn/Infer/Apply produce the next
// one. A snapshot never changes after publication: readers that need a
// consistent multi-query view hold one Snapshot and issue every query
// against it.
//
// Consecutive snapshots share what an update did not change (see
// skeleton), so a held Snapshot pins its own marginal vector (8 bytes per
// variable), the one-byte-per-fact state of the relations that changed
// since, and — only once the lineage has outgrown or compacted them — the
// fact and index storage it was published over.
type Snapshot struct {
	skeleton
	epoch uint64
	marg  []float64 // shared with the KB, which replaces it and never writes it; nil before the first inference
	// changes are the change sets of this and the preceding publications,
	// oldest first, consecutive epochs (see changedSince).
	changes []changeSet
}

// skeleton is the grounding-dependent half of a snapshot: the per-relation
// fact tables and graph statistics, pinned to one grounding version and
// graph epoch. The marginal vector and the publication epoch are attached
// by publishStaged once inference has run — which is what lets an apply
// prepare the skeleton during its grounding stage.
//
// A document update derives its skeleton from the previous one and the
// committed delta (KB.nextSkeleton): relations the delta did not touch
// share their relView, a touched relation shares its fact storage and its
// key index with its predecessor, and loc grows in place. The empty
// skeleton is the only base case: Init's, a restore's and a compacting
// rebuild's skeletons are all derived from it.
type skeleton struct {
	groundVersion uint64
	graphEpoch    int32
	stats         GraphStats
	rels          map[string]*relView
	// loc[v] is where variable v's fact is stored. Entries never change and
	// the slice only grows, so the skeletons of a lineage share one backing
	// array, each with its own length.
	loc []factLoc
	// stored and dead count the facts in storage and those of them that are
	// not live, over all relations: once the dead outgrow a share of the
	// live, the next skeleton is rebuilt compact.
	stored, dead int
}

// factLoc places one variable's fact: position pos of relation rel's
// storage, or pos < 0 for a variable that was not live when the lineage
// was derived from the empty skeleton (it has no storage until the next
// such derivation).
type factLoc struct {
	rel string
	pos int32
}

// snapFact is the immutable part of one stored candidate fact. Marginals
// are looked up through the variable id in the snapshot's marginal vector.
type snapFact struct {
	tuple Tuple
	v     int32 // variable id (index into marg)
}

// Per-fact state bits of relView.state.
const (
	factLive     = 1 << iota // the candidate tuple is visible
	factEvidence             // the variable's value is fixed by supervision
	factTrue                 // that value
)

// relView is one relation's fact table as of one skeleton: the stored
// facts in ascending variable-id order (the order Extractions, Facts and
// Candidates report), their state, and a tuple-key index for point
// lookups. A fact that stops being live stays stored with its live bit
// cleared — a revival restores it in place, in order — so facts and index
// only ever grow and are shared along the lineage: facts is appended to in
// place (each view has its own length; nobody reads past theirs), index is
// persistent. state is this view's own: one byte per stored fact.
type relView struct {
	facts []snapFact
	state []uint8
	index keyIndex
	live  int
}

// keyIndex maps tuple keys to storage positions. Keys are only ever added,
// so it is a stack of immutable maps over disjoint key sets, each at most
// half the size of the one before: adding keys allocates a map of the new
// keys and merges the small end of the stack (every key is copied O(log n)
// times over the life of the index), and a lookup probes the large maps
// first — one probe for at least half the keys.
type keyIndex []map[string]int32

func (ix keyIndex) get(key []byte) (int32, bool) {
	for _, m := range ix {
		if p, ok := m[string(key)]; ok {
			return p, true
		}
	}
	return 0, false
}

// with returns the index extended by add, which it takes ownership of.
func (ix keyIndex) with(add map[string]int32) keyIndex {
	out := append(ix[:len(ix):len(ix)], add)
	for n := len(out); n >= 2 && 2*len(out[n-1]) > len(out[n-2]); n = len(out) {
		merged := make(map[string]int32, len(out[n-1])+len(out[n-2]))
		maps.Copy(merged, out[n-2])
		maps.Copy(merged, out[n-1])
		out = append(out[:n-2:n-2], merged)
	}
	return out
}

// changeSet names the facts one publication changed against the one before
// it: born, died, evidence flipped, marginal re-estimated. full stands for
// "any of them" — a publication that replaced the marginal vector or
// rebuilt the skeleton.
type changeSet struct {
	epoch uint64
	full  bool
	vars  []factor.VarID
}

// changeWindow is how many publications back a snapshot can name what
// changed (the serving tier's default resume window).
const changeWindow = 32

// emptySnapshot is what KB.Snapshot returns before the first publication.
func emptySnapshot() *Snapshot {
	return &Snapshot{skeleton: skeleton{rels: map[string]*relView{}}}
}

// Epoch returns the KB publication generation this snapshot belongs to:
// 0 for the initial empty view, then +1 per published state change.
// Epochs are totally ordered — a reader observing epoch n has all of
// update batch n and nothing of batch n+1.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// GroundVersion returns the grounding generation (one per applied update
// batch, Init's grounding the first) the snapshot is pinned to.
func (s *Snapshot) GroundVersion() uint64 { return s.groundVersion }

// GraphEpoch returns the factor graph's patch epoch at snapshot time
// (0 = freshly built or rebuilt, +1 per in-place patch since).
func (s *Snapshot) GraphEpoch() int32 { return s.graphEpoch }

// Stats reports the grounded factor-graph statistics at snapshot time.
func (s *Snapshot) Stats() GraphStats { return s.stats }

// fill renders stored fact i of rv into out (zero on entry) as a reader
// sees it.
func (s *Snapshot) fill(out *Fact, rv *relView, i int) {
	f, st := &rv.facts[i], rv.state[i]
	out.Tuple = f.tuple
	if st&factEvidence != 0 {
		out.Evidence, out.Known = true, true
		if st&factTrue != 0 {
			out.Probability = 1
		}
	} else if int(f.v) < len(s.marg) {
		out.Probability, out.Known = s.marg[f.v], true
	}
}

// Marginal returns the marginal probability of a candidate fact, or
// (0, false) when no such live candidate exists or no inference has run
// yet. Evidence facts report their supervised value (0 or 1).
func (s *Snapshot) Marginal(relation string, t Tuple) (float64, bool) {
	rv := s.rels[relation]
	if rv == nil {
		return 0, false
	}
	var buf [128]byte
	i, ok := rv.index.get(t.AppendKey(buf[:0]))
	if !ok || rv.state[i]&factLive == 0 {
		return 0, false
	}
	var f Fact
	s.fill(&f, rv, int(i))
	return f.Probability, f.Known
}

// Extractions returns the facts of a variable relation whose probability
// exceeds the threshold, including supervised-true evidence facts, in
// stable (variable-id) order.
func (s *Snapshot) Extractions(relation string, threshold float64) []Extraction {
	rv := s.rels[relation]
	if rv == nil {
		return nil
	}
	var out []Extraction
	for i, st := range rv.state {
		if st&factLive == 0 {
			continue
		}
		f := &rv.facts[i]
		if st&factEvidence != 0 {
			if st&factTrue != 0 {
				out = append(out, Extraction{Tuple: f.tuple, Probability: 1, Evidence: true})
			}
			continue
		}
		if int(f.v) < len(s.marg) && s.marg[f.v] > threshold {
			out = append(out, Extraction{Tuple: f.tuple, Probability: s.marg[f.v]})
		}
	}
	return out
}

// Fact is one live candidate fact enumerated by Snapshot.Facts: its
// tuple, its probability, and how that probability is determined.
// Evidence facts report their supervised value (0 or 1); query facts
// report their inferred marginal, with Known false when no inference has
// covered the variable yet (e.g. on the snapshot Init publishes, before
// the first Infer or Materialize).
// Its JSON form is the one /v1/facts serves.
type Fact = serve.Fact

// Facts enumerates every live fact of a relation with its probability,
// in stable (variable-id) order — the bulk form of Marginal, built for
// consumers that diff successive snapshots (e.g. streaming subscribers).
func (s *Snapshot) Facts(relation string) []Fact {
	rv := s.rels[relation]
	if rv == nil || rv.live == 0 {
		return nil
	}
	out := make([]Fact, rv.live)
	k := 0
	for i, st := range rv.state {
		if st&factLive != 0 {
			s.fill(&out[k], rv, i)
			k++
		}
	}
	return out
}

// Relations lists the relations with live facts in this snapshot, in
// sorted order.
func (s *Snapshot) Relations() []string {
	out := make([]string, 0, len(s.rels))
	for name, rv := range s.rels {
		if rv.live > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Candidates returns every live candidate tuple of a variable relation,
// in stable (variable-id) order.
func (s *Snapshot) Candidates(relation string) []Tuple {
	rv := s.rels[relation]
	if rv == nil || rv.live == 0 {
		return nil
	}
	out := make([]Tuple, 0, rv.live)
	for i, st := range rv.state {
		if st&factLive != 0 {
			out = append(out, rv.facts[i].tuple)
		}
	}
	return out
}

// changedSince lists every fact whose state in this snapshot may differ
// from the one it had at publication epoch since, ordered by relation and
// within a relation by variable id: the union of the change sets published
// after since. ok is false when that union is not known — since lies
// beyond the window the snapshot carries, or one of the publications in
// between changed everything — and the caller has to compare all facts.
func (s *Snapshot) changedSince(since uint64) (changed []serve.FactChange, ok bool) {
	if since >= s.epoch {
		return nil, true
	}
	first := len(s.changes)
	for first > 0 && s.changes[first-1].epoch > since {
		first--
		if s.changes[first].full {
			return nil, false
		}
	}
	if first == len(s.changes) || s.changes[first].epoch != since+1 {
		return nil, false
	}
	var vars []factor.VarID
	for _, cs := range s.changes[first:] {
		vars = append(vars, cs.vars...)
	}
	slices.Sort(vars)
	vars = slices.Compact(vars)
	changed = make([]serve.FactChange, 0, len(vars))
	for _, v := range vars {
		l := s.loc[v]
		if l.pos < 0 {
			continue // never live in this lineage: no reader has seen it
		}
		rv := s.rels[l.rel]
		c := serve.FactChange{Relation: l.rel, Live: rv.state[l.pos]&factLive != 0}
		s.fill(&c.Fact, rv, int(l.pos))
		changed = append(changed, c)
	}
	sort.SliceStable(changed, func(i, j int) bool { return changed[i].Relation < changed[j].Relation })
	return changed, true
}

// factState is variable v's state bits as the grounder and the committed
// graph g have it.
func (kb *KB) factState(g *factor.Graph, v factor.VarID) (st uint8) {
	if kb.grounder.IsLive(v) {
		st |= factLive
	}
	if int(v) < g.NumVars() && g.IsEvidence(v) {
		st |= factEvidence
		if g.EvidenceValue(v) {
			st |= factTrue
		}
	}
	return st
}

// nextSkeleton derives the skeleton of a committed update from its
// predecessor and the update's delta, in O(|delta|) plus one byte per
// stored fact of each relation the delta touched: new variables are
// appended to their relation's storage, liveness and evidence changes flip
// state bits. It also returns what the step changed, for the
// publication's change set: the variables whose fact was born, died,
// revived or had its supervision flipped — or everything, when it derives
// from the empty skeleton instead (storage positions moved): there is no
// predecessor (Init, a restore), the delta touches a variable the lineage
// has no storage for, or dead facts have outgrown a quarter of the live
// ones. A derivation from empty stores live facts only, so it compacts.
// Callers hold mu.
func (kb *KB) nextSkeleton(prev *skeleton, g *factor.Graph, d *ground.Delta) (s *skeleton, changed changeSet) {
	if prev == nil || prev.dead > 16+(prev.stored-prev.dead)/4 || unstored(prev, d) {
		nv := kb.grounder.NumVars()
		prev = &skeleton{rels: map[string]*relView{}, loc: make([]factLoc, 0, nv+nv/8+16)}
		changed.full = true
	}
	sk := *prev
	s = &sk
	s.groundVersion, s.graphEpoch = kb.grounder.Version(), g.Epoch()

	// own returns rel's view for writing, cloning it (and, once, the
	// relation map) the first time this update touches it.
	owned := map[string]*relView{}
	newKeys := map[string]map[string]int32{}
	own := func(rel string) *relView {
		if rv := owned[rel]; rv != nil {
			return rv
		}
		if len(owned) == 0 {
			s.rels = maps.Clone(prev.rels)
		}
		rv := &relView{}
		if old := prev.rels[rel]; old != nil {
			*rv = *old
			rv.state = append(make([]uint8, 0, len(old.state)+8), old.state...)
		}
		owned[rel], s.rels[rel] = rv, rv
		return rv
	}
	set := func(v factor.VarID, rv *relView, pos int32, st uint8) {
		old := rv.state[pos]
		if old == st {
			return
		}
		rv.state[pos] = st
		live := int(st&factLive) - int(old&factLive)
		rv.live += live
		s.dead -= live
		s.stats.Evidence += (int(st&factEvidence) - int(old&factEvidence)) / factEvidence
		if !changed.full {
			changed.vars = append(changed.vars, v)
		}
	}
	for _, vs := range [][]factor.VarID{d.LivenessChanged, d.EvidenceChanged} {
		for _, v := range vs {
			if int(v) < len(prev.loc) {
				l := s.loc[v]
				set(v, own(l.rel), l.pos, kb.factState(g, v))
			}
		}
	}
	// New variables come in runs of one relation: rel, rv and keys are the
	// last one's.
	var rel string
	var rv *relView
	var keys map[string]int32
	tuples, tkeys := kb.grounder.VarFacts(len(prev.loc), kb.grounder.NumVars())
	for v := len(prev.loc); v < kb.grounder.NumVars(); v++ {
		id := factor.VarID(v)
		st := kb.factState(g, id)
		r := kb.grounder.VarRelation(id)
		if changed.full && st&factLive == 0 { // from empty: live facts only
			s.loc = append(s.loc, factLoc{rel: r, pos: -1})
			s.stats.Evidence += int(st&factEvidence) / factEvidence
			continue
		}
		if rv == nil || r != rel {
			rel, rv = r, own(r)
			if keys = newKeys[rel]; keys == nil {
				keys = map[string]int32{}
				newKeys[rel] = keys
			}
		}
		pos := int32(len(rv.facts))
		keys[tkeys[v-len(prev.loc)]] = pos
		rv.facts = append(rv.facts, snapFact{tuple: tuples[v-len(prev.loc)], v: int32(v)})
		rv.state = append(rv.state, 0)
		s.loc = append(s.loc, factLoc{rel: rel, pos: pos})
		s.stored++
		s.dead++ // until set finds it live
		set(id, rv, pos, st)
	}
	for rel, add := range newKeys {
		owned[rel].index = owned[rel].index.with(add)
	}
	s.stats.Variables, s.stats.Factors, s.stats.Weights = g.NumVars(), kb.grounder.NumGroundings(), g.NumWeights()
	s.stats.QueryFacts = s.stats.Variables - s.stats.Evidence
	return s, changed
}

// unstored reports whether d touches a variable prev has no storage for.
func unstored(prev *skeleton, d *ground.Delta) bool {
	for _, vs := range [][]factor.VarID{d.LivenessChanged, d.EvidenceChanged} {
		for _, v := range vs {
			if int(v) < len(prev.loc) && prev.loc[v].pos < 0 {
				return true
			}
		}
	}
	return false
}
