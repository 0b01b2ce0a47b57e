// Package kbc is the glue between the generated corpora and a
// deepdive.KB, plus the quality metrics of the evaluation. The glue: raw
// documents through NLP preprocessing into base relations (Figure 1), a
// generated DeepDive program per system (candidate generation, feature
// extraction, supervision, inference rules — the rule inventory of
// Figure 8), the development iterations A1/FE1/FE2/I1/S1/S2 used
// throughout Section 4, and OpenKB to load it all into a KB. The metrics
// (metrics.go) score a KB snapshot against the generator's exact ground
// truth. The development loop itself is deepdive.KB's; nothing here
// learns or infers.
package kbc

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/datalog"
	"deepdive/internal/db"
	"deepdive/internal/factor"
	"deepdive/internal/ground"
	"deepdive/internal/nlp"
)

// relVar names the variable relation for a target relation.
func relVar(rel string) string { return "Rel_" + rel }

// BaseProgram renders the snapshot-0 DeepDive program for a system:
// declarations, candidate-generation rules (C), a bias feature (FE0), and
// seed supervision (S0). Later iterations arrive as updates via
// IterationRules.
func BaseProgram(sys *corpus.System, sem factor.Semantics) string {
	var sb strings.Builder
	sb.WriteString("@relation Sentence(sid, words).\n")
	sb.WriteString("@relation Mention(mid, sid, etype, eid).\n")
	for _, r := range sys.Spec.Relations {
		fmt.Fprintf(&sb, "@variable %s(m1, m2).\n", relVar(r.Name))
		fmt.Fprintf(&sb, "@relation %s_Ev(m1, m2, label).\n", relVar(r.Name))
		fmt.Fprintf(&sb, "@relation KB_%s(e1, e2).\n", r.Name)
		fmt.Fprintf(&sb, "@relation NegKB_%s(e1, e2).\n", r.Name)
		fmt.Fprintf(&sb, "@relation SeedKB_%s(e1, e2, label).\n", r.Name)
	}
	fmt.Fprintf(&sb, "@semantics(%s).\n", sem)
	for _, r := range sys.Spec.Relations {
		// Candidate generation (paper rule R1): typed mention pairs
		// co-occurring in a sentence.
		fmt.Fprintf(&sb, "C_%s: %s(m1, m2) :- Mention(m1, s, %q, e1), Mention(m2, s, %q, e2), m1 != m2.\n",
			r.Name, relVar(r.Name), r.Type1, r.Type2)
		// FE0: a learnable per-relation bias so snapshot 0 has a model.
		fmt.Fprintf(&sb, "FE0_%s: %s(m1, m2) :- %s(m1, m2) weight = w().\n",
			r.Name, relVar(r.Name), relVar(r.Name))
		// S0: seed supervision from a handful of hand-labeled pairs.
		fmt.Fprintf(&sb, "S0_%s: %s_Ev(m1, m2, l) :- %s(m1, m2), Mention(m1, s, t1, e1), Mention(m2, s, t2, e2), SeedKB_%s(e1, e2, l).\n",
			r.Name, relVar(r.Name), relVar(r.Name), r.Name)
	}
	return sb.String()
}

// IterationRules renders the rule text added by one development
// iteration (the workload categories of Figure 8): "FE1" shallow
// phrase features, "FE2" deeper tag-path features, "I1" inference rules
// (symmetry where the schema allows), "S1" positive distant supervision,
// "S2" negative supervision. "A1" is the analysis workload: no rules.
func IterationRules(sys *corpus.System, name string) string {
	var sb strings.Builder
	for _, r := range sys.Spec.Relations {
		rv := relVar(r.Name)
		switch name {
		case "A1":
			// Analysis only: marginal (pair) probabilities, no new rules.
		case "FE1":
			fmt.Fprintf(&sb, "FE1_%s: %s(m1, m2) :- Mention(m1, s, t1, e1), Mention(m2, s, t2, e2), Sentence(s, words), m1 != m2 weight = phrase(m1, m2, words).\n",
				r.Name, rv)
		case "FE2":
			fmt.Fprintf(&sb, "FE2_%s: %s(m1, m2) :- Mention(m1, s, t1, e1), Mention(m2, s, t2, e2), Sentence(s, words), m1 != m2 weight = tagpath(m1, m2, words).\n",
				r.Name, rv)
		case "I1":
			if r.Symmetric {
				fmt.Fprintf(&sb, "I1_%s: %s(m2, m1) :- %s(m1, m2) weight = 1.2.\n",
					r.Name, rv, rv)
			} else {
				// Asymmetric relations get a sentence-level prior: pairs
				// whose mentions are near each other are more likely.
				fmt.Fprintf(&sb, "I1_%s: %s(m1, m2) :- Mention(m1, s, t1, e1), Mention(m2, s, t2, e2), Sentence(s, words), m1 != m2 weight = proximity(m1, m2, words).\n",
					r.Name, rv)
			}
		case "S1":
			fmt.Fprintf(&sb, "S1_%s: %s_Ev(m1, m2, true) :- %s(m1, m2), Mention(m1, s, t1, e1), Mention(m2, s, t2, e2), KB_%s(e1, e2).\n",
				r.Name, rv, rv, r.Name)
		case "S2":
			fmt.Fprintf(&sb, "S2_%s: %s_Ev(m1, m2, false) :- %s(m1, m2), Mention(m1, s, t1, e1), Mention(m2, s, t2, e2), NegKB_%s(e1, e2).\n",
				r.Name, rv, rv, r.Name)
		default:
			panic(fmt.Sprintf("kbc: unknown iteration %q", name))
		}
	}
	return sb.String()
}

// IterationNames is the development sequence used in Section 4.2.
var IterationNames = []string{"A1", "FE1", "FE2", "I1", "S1", "S2"}

// ParseMentionID decodes "m:<sid>:<start>:<end>". It allocates nothing: the
// feature UDFs call it twice per binding.
func ParseMentionID(mid string) (sid string, start, end int, ok bool) {
	rest, ok := strings.CutPrefix(mid, "m:")
	i := strings.IndexByte(rest, ':')
	if !ok || i < 0 {
		return "", 0, 0, false
	}
	sid, rest = rest[:i], rest[i+1:]
	if i = strings.IndexByte(rest, ':'); i < 0 {
		return "", 0, 0, false
	}
	s, err1 := strconv.Atoi(rest[:i])
	e, err2 := strconv.Atoi(rest[i+1:])
	if err1 != nil || err2 != nil {
		return "", 0, 0, false
	}
	return sid, s, e, true
}

// UDFs returns the feature-extraction UDF registry shared by all systems:
//
//	phrase(m1, m2, words)    — normalized word sequence between mentions (FE1)
//	tagpath(m1, m2, words)   — POS-tag path with one-token context (FE2)
//	proximity(m1, m2, words) — bucketed token distance (I1 for asymmetric relations)
func UDFs() ground.UDFRegistry {
	// The sentence (args[2]) is read in place: no token slice per binding.
	spans := func(args []string) (aS, aE, bS, bE int, ok bool) {
		_, aS, aE, ok1 := ParseMentionID(args[0])
		_, bS, bE, ok2 := ParseMentionID(args[1])
		return aS, aE, bS, bE, ok1 && ok2
	}
	return ground.UDFRegistry{
		"phrase": func(args []string) string {
			aS, aE, bS, bE, ok := spans(args)
			if !ok {
				return "bad"
			}
			p := nlp.PhraseBetweenText(args[2], aS, aE, bS, bE, 4)
			if p == "" {
				return "adjacent"
			}
			return p
		},
		"tagpath": func(args []string) string {
			aS, aE, bS, bE, ok := spans(args)
			if !ok {
				return "bad"
			}
			p := nlp.TagPathText(args[2], aS, aE, bS, bE)
			if p == "" {
				return "overlap"
			}
			return p
		},
		"proximity": func(args []string) string {
			aS, aE, bS, bE, ok := spans(args)
			if !ok {
				return "bad"
			}
			d := bS - aE
			if bE <= aS {
				d = aS - bE
			}
			switch {
			case d <= 2:
				return "near"
			case d <= 6:
				return "mid"
			default:
				return "far"
			}
		},
	}
}

// BaseTuples runs the NLP substrate over the system's documents and
// returns the base relations: Sentence, Mention (with entity links), and
// the per-relation KB / NegKB / SeedKB tables.
func BaseTuples(sys *corpus.System) map[string][]db.Tuple {
	gaz := nlp.NewGazetteer()
	for eid, surface := range sys.Surface {
		typ := strings.SplitN(eid, "_", 2)[0]
		gaz.Add(surface, typ, eid)
	}
	out := map[string][]db.Tuple{}
	var sentences, mentions []db.Tuple
	var id []byte
	for di, doc := range sys.Docs {
		for si, sent := range nlp.SplitSentences(doc) {
			tokens := nlp.Tokenize(sent)
			id = append(id[:0], 's')
			id = strconv.AppendInt(id, int64(di), 10)
			id = append(id, '_')
			id = strconv.AppendInt(id, int64(si), 10)
			sid := string(id)
			// A fresh string: no tuple keeps the document alive.
			sentences = append(sentences, db.Tuple{sid, strings.Join(tokens, " ")})
			for _, m := range gaz.Recognize(tokens) {
				id = append(append(id[:0], "m:"...), sid...)
				id = append(strconv.AppendInt(append(id, ':'), int64(m.Start), 10), ':')
				id = strconv.AppendInt(id, int64(m.End), 10)
				mentions = append(mentions, db.Tuple{string(id), sid, m.Type, m.Entity})
			}
		}
	}
	if len(sentences) > 0 {
		out["Sentence"] = sentences
	}
	if len(mentions) > 0 {
		out["Mention"] = mentions
	}
	for _, r := range sys.Spec.Relations {
		for _, p := range sys.KB[r.Name] {
			out["KB_"+r.Name] = append(out["KB_"+r.Name], db.Tuple{p.E1, p.E2})
		}
		for _, p := range sys.NegKB[r.Name] {
			out["NegKB_"+r.Name] = append(out["NegKB_"+r.Name], db.Tuple{p.E1, p.E2})
		}
		for _, lp := range sys.Seeds[r.Name] {
			out["SeedKB_"+r.Name] = append(out["SeedKB_"+r.Name],
				db.Tuple{lp.E1, lp.E2, strconv.FormatBool(lp.Label)})
		}
	}
	return out
}

// Program renders a system's DeepDive program with the first upTo
// development iterations already in it: 0 is the base program, and
// len(IterationNames) the final program of the development loop.
func Program(sys *corpus.System, sem factor.Semantics, upTo int) string {
	src := BaseProgram(sys, sem)
	for i := 0; i < upTo && i < len(IterationNames); i++ {
		src += IterationRules(sys, IterationNames[i])
	}
	return src
}

// Ground grounds Program(sys, sem, upTo) over the system's base tuples on
// a bare grounder, for single-layer measurements that need the grounding
// tables or the factor graph itself, which a KB does not expose.
func Ground(sys *corpus.System, sem factor.Semantics, upTo int) (*ground.Grounder, error) {
	g, err := Load(sys, sem, upTo)
	if err != nil {
		return nil, err
	}
	return g, g.Ground()
}

// Load is Ground up to the grounding itself: a bare grounder of
// Program(sys, sem, upTo) with the system's base tuples loaded.
func Load(sys *corpus.System, sem factor.Semantics, upTo int) (*ground.Grounder, error) {
	prog, err := datalog.Parse(Program(sys, sem, upTo))
	if err != nil {
		return nil, fmt.Errorf("kbc: %s: %w", sys.Spec.Name, err)
	}
	g, err := ground.New(prog, UDFs())
	if err != nil {
		return nil, err
	}
	for rel, tuples := range BaseTuples(sys) {
		if err := g.LoadBase(rel, tuples); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// OpenKB opens a KB over Program(sys, sem, upTo) with the feature UDFs
// registered, loads the system's base tuples and runs the initial
// grounding. A KB recovered from a data directory (deepdive.WithDataDir)
// is returned as restored: it already holds its data and its program.
func OpenKB(sys *corpus.System, sem factor.Semantics, upTo int, opts ...deepdive.Option) (*deepdive.KB, error) {
	var all []deepdive.Option
	for name, f := range UDFs() {
		all = append(all, deepdive.WithUDF(name, f))
	}
	kb, err := deepdive.OpenKB(Program(sys, sem, upTo), append(all, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("kbc: %s: %w", sys.Spec.Name, err)
	}
	if kb.Recovered() {
		return kb, nil
	}
	for rel, tuples := range BaseTuples(sys) {
		if err := kb.Load(rel, tuples); err != nil {
			kb.CloseNow()
			return nil, fmt.Errorf("kbc: %s: load %s: %w", sys.Spec.Name, rel, err)
		}
	}
	if err := kb.Init(context.Background()); err != nil {
		kb.CloseNow()
		return nil, fmt.Errorf("kbc: %s: %w", sys.Spec.Name, err)
	}
	return kb, nil
}
