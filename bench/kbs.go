package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

// This file is the only glue between the generated corpora and the
// served KB: corpus.Generate + kbc.BaseProgram/BaseTuples/UDFs/
// IterationRules, then the public deepdive API. kbc.Pipeline is never
// used, so the numbers are those of the stack a deployment runs.

// sysScale names one of the paper's five systems at a size factor.
type sysScale struct {
	Name  string
	Scale float64
}

func specByName(name string) corpus.Spec {
	switch name {
	case "News":
		return corpus.News()
	case "Adversarial":
		return corpus.Adversarial()
	case "Genomics":
		return corpus.Genomics()
	case "Pharma":
		return corpus.Pharma()
	case "Paleontology":
		return corpus.Paleontology()
	}
	panic("bench: unknown system " + name)
}

// scaledSpec resizes a system: pair and document counts scale with f, the
// entity pool with its square root (so pair density stays comparable),
// with floors that keep every relation populated. The seed replaces the
// spec's fixed one: the corpus is an input generated from --seed.
func scaledSpec(name string, f float64, seed int64) corpus.Spec {
	s := specByName(name)
	sc := func(n int, g float64, min int) int {
		v := int(math.Round(float64(n) * g))
		if v < min {
			v = min
		}
		return v
	}
	s.Seed = seed
	s.NumDocs = sc(s.NumDocs, f, 8)
	s.TruePairsPerRel = sc(s.TruePairsPerRel, f, 4)
	s.FalsePairsPerRel = sc(s.FalsePairsPerRel, f, 8)
	s.NegPairsPerRel = sc(s.NegPairsPerRel, f, 3)
	s.EntitiesPerType = sc(s.EntitiesPerType, math.Sqrt(f), 12)
	return s
}

// lightDocs makes a spec pack one or two sentences per document, so a
// document insert is a small Δ and a corpus yields many of them.
func lightDocs(s corpus.Spec) corpus.Spec {
	s.SentencesPerDoc = [2]int{1, 2}
	return s
}

// program renders a system's DeepDive program with the first upTo
// development iterations already in it (0 = the base program, 6 = the
// final program of the development loop).
func program(sys *corpus.System, upTo int) string {
	src := kbc.BaseProgram(sys, factor.Ratio)
	for i := 0; i < upTo && i < len(kbc.IterationNames); i++ {
		src += kbc.IterationRules(sys, kbc.IterationNames[i])
	}
	return src
}

var finalProgram = len(kbc.IterationNames)

// doc is one document's base tuples (its Sentence and Mention rows).
type doc struct {
	ID     int
	Tuples map[string][]deepdive.Tuple
}

// docIndex parses the document number out of a sentence id "s<doc>_<n>".
func docIndex(sid string) int {
	i := strings.IndexByte(sid, '_')
	if i < 2 {
		return -1
	}
	n, err := strconv.Atoi(sid[1:i])
	if err != nil {
		return -1
	}
	return n
}

// splitDocs separates the per-document relations (Sentence, Mention) of
// base into documents; the other relations (the supervision KBs) stay in
// base. Documents come back in document order.
func splitDocs(base map[string][]deepdive.Tuple) []doc {
	byID := map[int]*doc{}
	maxID := -1
	for _, rel := range []string{"Sentence", "Mention"} {
		for _, t := range base[rel] {
			sid := t[0]
			if rel == "Mention" {
				sid = t[1]
			}
			id := docIndex(sid)
			d := byID[id]
			if d == nil {
				d = &doc{ID: id, Tuples: map[string][]deepdive.Tuple{}}
				byID[id] = d
				if id > maxID {
					maxID = id
				}
			}
			d.Tuples[rel] = append(d.Tuples[rel], t)
		}
		delete(base, rel)
	}
	out := make([]doc, 0, len(byID))
	for id := 0; id <= maxID; id++ {
		if d := byID[id]; d != nil {
			out = append(out, *d)
		}
	}
	return out
}

// renumber moves a document to a fresh id (rewriting its sentence and
// mention ids), so documents drawn from a second corpus of the same spec
// never collide with the first's.
func renumber(d doc, id int) doc {
	old, neu := fmt.Sprintf("s%d_", d.ID), fmt.Sprintf("s%d_", id)
	out := doc{ID: id, Tuples: map[string][]deepdive.Tuple{}}
	for rel, ts := range d.Tuples {
		for _, t := range ts {
			c := make(deepdive.Tuple, len(t))
			for i, v := range t {
				c[i] = strings.Replace(v, old, neu, 1)
			}
			out.Tuples[rel] = append(out.Tuples[rel], c)
		}
	}
	return out
}

// docFacts lists the candidate facts a document grounds: for every
// relation, the typed mention pairs co-occurring in one of its sentences
// (the program's candidate-generation rule). Keys are "Rel_X\x00m1\x00m2".
func docFacts(sys *corpus.System, d doc) []string {
	bySent := map[string][]deepdive.Tuple{}
	for _, m := range d.Tuples["Mention"] {
		bySent[m[1]] = append(bySent[m[1]], m)
	}
	var out []string
	for _, r := range sys.Spec.Relations {
		for _, ms := range bySent {
			for _, a := range ms {
				if a[2] != r.Type1 {
					continue
				}
				for _, b := range ms {
					if b[2] == r.Type2 && a[0] != b[0] {
						out = append(out, factKey("Rel_"+r.Name, []string{a[0], b[0]}))
					}
				}
			}
		}
	}
	return out
}

func factKey(rel string, tuple []string) string {
	return rel + "\x00" + strings.Join(tuple, "\x00")
}

// kbOptions are the options every benchmark KB opens with: the defaults
// of the public API plus the feature UDFs. The defaults are what is
// measured; a workload adds only what defines it (a data directory,
// background re-materialization).
func kbOptions(seed int64, extra ...deepdive.Option) []deepdive.Option {
	opts := []deepdive.Option{deepdive.WithSeed(seed)}
	for name, f := range kbc.UDFs() {
		opts = append(opts, deepdive.WithUDF(name, f))
	}
	return append(opts, extra...)
}

// stageTimes is the set-up breakdown of one KB: corpus generation and
// NLP, load + initial grounding, learning, inference, materialization,
// and (durable KBs) the first checkpoint.
type stageTimes struct {
	CorpusMS      float64 `json:"corpus_ms"`
	LoadInitMS    float64 `json:"load_init_ms"`
	LearnMS       float64 `json:"learn_ms"`
	InferMS       float64 `json:"infer_ms"`
	MaterializeMS float64 `json:"materialize_ms"`
	CheckpointMS  float64 `json:"checkpoint_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// buildKB opens a KB over src, loads base plus the given documents, and
// runs it to the materialized (update-ready) state; with checkpoint it
// also makes the state durable. infer can be skipped for KBs whose first
// marginals come from Materialize.
func buildKB(ctx context.Context, src string, base map[string][]deepdive.Tuple, docs []doc, checkpoint bool, opts []deepdive.Option) (*deepdive.KB, stageTimes, error) {
	var st stageTimes
	kb, err := deepdive.OpenKB(src, opts...)
	if err != nil {
		return nil, st, fmt.Errorf("open KB: %w", err)
	}
	fail := func(what string, err error) (*deepdive.KB, stageTimes, error) {
		kb.CloseNow()
		return nil, st, fmt.Errorf("%s: %w", what, err)
	}
	t := time.Now()
	for rel, ts := range base {
		if err := kb.Load(rel, ts); err != nil {
			return fail("load "+rel, err)
		}
	}
	merged := map[string][]deepdive.Tuple{}
	for _, d := range docs {
		for rel, ts := range d.Tuples {
			merged[rel] = append(merged[rel], ts...)
		}
	}
	for rel, ts := range merged {
		if err := kb.Load(rel, ts); err != nil {
			return fail("load "+rel, err)
		}
	}
	if err := kb.Init(ctx); err != nil {
		return fail("init", err)
	}
	st.LoadInitMS = ms(time.Since(t))
	d, err := kb.Learn(ctx)
	if err != nil {
		return fail("learn", err)
	}
	st.LearnMS = ms(d)
	if d, err = kb.Infer(ctx); err != nil {
		return fail("infer", err)
	}
	st.InferMS = ms(d)
	t = time.Now()
	if _, err = kb.Materialize(ctx); err != nil {
		return fail("materialize", err)
	}
	st.MaterializeMS = ms(time.Since(t))
	if checkpoint {
		t = time.Now()
		if err := kb.Checkpoint(ctx); err != nil {
			return fail("checkpoint", err)
		}
		st.CheckpointMS = ms(time.Since(t))
	}
	return kb, st, nil
}

// genSystem generates a scaled system and its base tuples, timing both.
func genSystem(spec corpus.Spec) (*corpus.System, map[string][]deepdive.Tuple, float64) {
	t := time.Now()
	sys := corpus.Generate(spec)
	base := kbc.BaseTuples(sys)
	return sys, base, ms(time.Since(t))
}

// mentionEntities maps mention id → entity id from Mention tuples.
func mentionEntities(mentions []deepdive.Tuple, into map[string]string) map[string]string {
	if into == nil {
		into = map[string]string{}
	}
	for _, m := range mentions {
		into[m[0]] = m[3]
	}
	return into
}

// confusion is the extraction quality count against the generator's
// exact ground truth, at the 0.5 threshold the paper uses.
type confusion struct{ TP, FP, FN int }

func (c confusion) f1() float64 {
	if c.TP == 0 {
		return 0
	}
	p := float64(c.TP) / float64(c.TP+c.FP)
	r := float64(c.TP) / float64(c.TP+c.FN)
	return 2 * p * r / (p + r)
}

func (c *confusion) add(o confusion) { c.TP += o.TP; c.FP += o.FP; c.FN += o.FN }

// scoreOf counts a snapshot's extractions against ground truth.
func scoreOf(sys *corpus.System, entity map[string]string, snap *deepdive.Snapshot) confusion {
	var c confusion
	for _, r := range sys.Spec.Relations {
		for _, f := range snap.Facts("Rel_" + r.Name) {
			e1, ok1 := entity[f.Tuple[0]]
			e2, ok2 := entity[f.Tuple[1]]
			if !ok1 || !ok2 {
				continue
			}
			truth := sys.IsTrue(r.Name, e1, e2)
			pred := f.Known && f.Probability > 0.5
			switch {
			case pred && truth:
				c.TP++
			case pred && !truth:
				c.FP++
			case !pred && truth:
				c.FN++
			}
		}
	}
	return c
}

// marginalDrift is Σ |a − b| over the query facts both snapshots hold
// with a known marginal, and how many those are.
func marginalDrift(sys *corpus.System, a, b *deepdive.Snapshot) (sum float64, n int) {
	for _, r := range sys.Spec.Relations {
		rel := "Rel_" + r.Name
		other := map[string]deepdive.Fact{}
		for _, f := range b.Facts(rel) {
			other[f.Tuple.Key()] = f
		}
		for _, f := range a.Facts(rel) {
			g, ok := other[f.Tuple.Key()]
			if !ok || f.Evidence || g.Evidence || !f.Known || !g.Known {
				continue
			}
			sum += math.Abs(f.Probability - g.Probability)
			n++
		}
	}
	return sum, n
}

// allFacts flattens a snapshot into key → probability bits, for the
// bit-for-bit restart comparison.
func allFacts(snap *deepdive.Snapshot) map[string]uint64 {
	out := map[string]uint64{}
	for _, rel := range snap.Relations() {
		for _, f := range snap.Facts(rel) {
			bits := math.Float64bits(f.Probability)
			if !f.Known {
				bits = ^uint64(0)
			}
			out[factKey(rel, f.Tuple)] = bits
		}
	}
	return out
}
