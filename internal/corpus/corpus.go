// Package corpus generates the synthetic corpora and knowledge bases that
// stand in for the paper's five evaluation systems (Figure 7): News,
// Genomics, Adversarial, Pharmacogenomics, and Paleontology. Corpora are
// scaled ~2000× down from the paper but preserve the relative sizes,
// relation counts, text-quality differences (Adversarial = 1-2 malformed
// sentences per document; Paleontology = clean precise prose), and the
// repeated-mention skew that makes the counting semantics of Figure 4
// matter. Every generator is deterministic in its seed, and ground truth
// is known exactly, so precision/recall/F1 are computed against reality
// rather than approximated.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// RelationSpec describes one target relation of a KBC system.
type RelationSpec struct {
	Name      string
	Type1     string // entity type of the first argument
	Type2     string // entity type of the second argument
	Symmetric bool   // whether the paper's I1-style symmetry rule applies
	// PosTemplates express the relation; {A}/{B} are argument slots.
	PosTemplates []string
}

// Spec parameterizes a synthetic KBC system.
type Spec struct {
	Name            string
	Seed            int64
	NumDocs         int
	SentencesPerDoc [2]int // inclusive min, max
	EntitiesPerType int
	Relations       []RelationSpec
	TruePairsPerRel int
	// KBFraction of true pairs goes into the distant-supervision KB (S1).
	KBFraction float64
	// NegPairsPerRel disjoint pairs go into the negative KB (S2).
	NegPairsPerRel int
	// SeedPairsPerRel labeled entity pairs (half true, half false) back
	// the base program's S0 supervision.
	SeedPairsPerRel int
	// ExpressProb: probability a planted pair mention uses a positive
	// template (otherwise neutral co-occurrence — a recall challenge).
	ExpressProb float64
	// PatternNoise: probability a *false* co-occurring pair is rendered
	// with a positive template (a precision challenge).
	PatternNoise float64
	// MentionsPerPair: mean number of sentences mentioning each pair
	// (repeated mentions are what separate Linear from Ratio/Logical).
	MentionsPerPair float64
	// FalsePairsPerRel: co-occurring unrelated pairs.
	FalsePairsPerRel int
	// Malformed: probability a sentence is corrupted (token dropout and
	// shuffling) — the Adversarial system's defining property.
	Malformed float64
	// Neutral templates for co-occurrence without the relation.
	NeutralTemplates []string
}

// Pair is an ordered entity pair.
type Pair struct{ E1, E2 string }

// LabeledPair carries a supervision label.
type LabeledPair struct {
	Pair
	Label bool
}

// System is a generated corpus plus its ground truth and supervision KBs.
type System struct {
	Spec Spec
	// Docs are raw documents (the unstructured input of Figure 1).
	Docs []string
	// Entities: type -> entity ids; Surface: entity id -> surface form.
	Entities map[string][]string
	Surface  map[string]string
	// Truth: relation -> set of true entity pairs (full ground truth).
	Truth map[string]map[Pair]bool
	// KB: relation -> incomplete KB for distant supervision (S1).
	KB map[string][]Pair
	// NegKB: relation -> disjoint pairs for negative supervision (S2).
	NegKB map[string][]Pair
	// Seeds: relation -> labeled pairs for the base program (S0).
	Seeds map[string][]LabeledPair
}

// IsTrue reports ground truth for a pair, honoring symmetry.
func (s *System) IsTrue(rel string, e1, e2 string) bool {
	truth := s.Truth[rel]
	if truth[Pair{e1, e2}] {
		return true
	}
	for _, r := range s.Spec.Relations {
		if r.Name == rel && r.Symmetric {
			return truth[Pair{e2, e1}]
		}
	}
	return false
}

// Generate builds the corpus deterministically from the spec.
func Generate(spec Spec) *System {
	rng := rand.New(rand.NewSource(spec.Seed))
	s := &System{
		Spec:     spec,
		Entities: map[string][]string{},
		Surface:  map[string]string{},
		Truth:    map[string]map[Pair]bool{},
		KB:       map[string][]Pair{},
		NegKB:    map[string][]Pair{},
		Seeds:    map[string][]LabeledPair{},
	}
	s.makeEntities(rng)
	s.makeTruth(rng)
	sentences := s.makeSentences(rng)
	rng.Shuffle(len(sentences), func(i, j int) {
		sentences[i], sentences[j] = sentences[j], sentences[i]
	})
	s.packDocs(rng, sentences)
	return s
}

// nameParts provide distinct multi-token surface forms per type.
var firstParts = []string{
	"Alden", "Brava", "Corin", "Dalia", "Edrik", "Fen", "Gildar", "Hesper",
	"Ilona", "Jarek", "Kestrel", "Lorin", "Merou", "Nadir", "Orla", "Pavel",
	"Quin", "Rasia", "Soren", "Talia", "Ulric", "Vesna", "Wren", "Xanthe",
	"Yoren", "Zaida",
}
var secondParts = []string{
	"Ashford", "Blackwood", "Caldera", "Dunmore", "Eastvale", "Farrow",
	"Grenfell", "Halloway", "Ironwood", "Jessup", "Kirkwall", "Lockhart",
	"Marsden", "Northgate", "Okafor", "Pemberton", "Quillon", "Redfield",
	"Southwell", "Thornbury", "Underhill", "Vance", "Westbrook", "Yarrow",
}

func (s *System) makeEntities(rng *rand.Rand) {
	seen := map[string]bool{}
	var types []string
	for _, r := range s.Spec.Relations {
		for _, t := range []string{r.Type1, r.Type2} {
			if !seen[t] {
				seen[t] = true
				types = append(types, t)
			}
		}
	}
	sort.Strings(types)
	for _, typ := range types {
		for i := 0; i < s.Spec.EntitiesPerType; i++ {
			id := fmt.Sprintf("%s_%d", typ, i)
			first := firstParts[rng.Intn(len(firstParts))]
			second := secondParts[rng.Intn(len(secondParts))]
			surface := fmt.Sprintf("%s %s%s %s", first, typ, fmt.Sprint(i), second)
			s.Entities[typ] = append(s.Entities[typ], id)
			s.Surface[id] = surface
		}
	}
}

func (s *System) pickPair(rng *rand.Rand, r RelationSpec) Pair {
	t1 := s.Entities[r.Type1]
	t2 := s.Entities[r.Type2]
	for {
		p := Pair{t1[rng.Intn(len(t1))], t2[rng.Intn(len(t2))]}
		if p.E1 != p.E2 {
			return p
		}
	}
}

func (s *System) makeTruth(rng *rand.Rand) {
	for _, r := range s.Spec.Relations {
		truth := map[Pair]bool{}
		for len(truth) < s.Spec.TruePairsPerRel {
			truth[s.pickPair(rng, r)] = true
		}
		s.Truth[r.Name] = truth

		var pairs []Pair
		for p := range truth {
			pairs = append(pairs, p)
		}
		sortPairs(pairs)
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

		nKB := int(float64(len(pairs)) * s.Spec.KBFraction)
		s.KB[r.Name] = append([]Pair(nil), pairs[:nKB]...)

		// Negative KB: pairs not in truth (approximating the paper's
		// "largely disjoint relations" trick, e.g. siblings).
		for len(s.NegKB[r.Name]) < s.Spec.NegPairsPerRel {
			p := s.pickPair(rng, r)
			if !truth[p] && !truth[Pair{p.E2, p.E1}] {
				s.NegKB[r.Name] = append(s.NegKB[r.Name], p)
			}
		}

		// Seeds: labeled positives from truth (beyond the KB slice when
		// possible) and labeled negatives from fresh false pairs.
		nSeed := s.Spec.SeedPairsPerRel
		for i := 0; i < (nSeed+1)/2 && i < len(pairs); i++ {
			p := pairs[len(pairs)-1-i]
			s.Seeds[r.Name] = append(s.Seeds[r.Name], LabeledPair{Pair: p, Label: true})
		}
		for i := 0; i < nSeed/2; i++ {
			p := s.pickPair(rng, r)
			if !truth[p] {
				s.Seeds[r.Name] = append(s.Seeds[r.Name], LabeledPair{Pair: p, Label: false})
			}
		}
	}
}

// fillers pad sentences with inert context so phrase features stay local.
var fillers = []string{
	"according to the report", "during the long expedition", "in recent years",
	"as documented previously", "after careful review", "near the northern site",
	"despite earlier doubts", "in the latest survey", "for several seasons",
}

func (s *System) renderTemplate(rng *rand.Rand, tpl string, p Pair) string {
	sent := strings.ReplaceAll(tpl, "{A}", s.Surface[p.E1])
	sent = strings.ReplaceAll(sent, "{B}", s.Surface[p.E2])
	if rng.Float64() < 0.5 {
		sent = sent + " " + fillers[rng.Intn(len(fillers))]
	}
	if rng.Float64() < s.Spec.Malformed {
		sent = corrupt(rng, sent)
	}
	return sent
}

// corrupt simulates the Adversarial system's broken text: random token
// dropout and local swaps outside entity names.
func corrupt(rng *rand.Rand, sent string) string {
	words := strings.Fields(sent)
	var out []string
	for _, w := range words {
		if rng.Float64() < 0.12 && !strings.ContainsAny(w, "0123456789") {
			continue // dropout
		}
		out = append(out, w)
	}
	if len(out) > 3 && rng.Float64() < 0.5 {
		i := rng.Intn(len(out) - 1)
		out[i], out[i+1] = out[i+1], out[i]
	}
	return strings.Join(out, " ")
}

func (s *System) makeSentences(rng *rand.Rand) []string {
	var sentences []string
	emit := func(rel RelationSpec, p Pair, positive bool) {
		n := 1 + poisson(rng, s.Spec.MentionsPerPair-1)
		for k := 0; k < n; k++ {
			var tpl string
			usePos := positive && rng.Float64() < s.Spec.ExpressProb
			if !positive && rng.Float64() < s.Spec.PatternNoise {
				usePos = true
			}
			if usePos {
				tpl = rel.PosTemplates[rng.Intn(len(rel.PosTemplates))]
			} else {
				tpl = s.Spec.NeutralTemplates[rng.Intn(len(s.Spec.NeutralTemplates))]
			}
			sentences = append(sentences, s.renderTemplate(rng, tpl, p))
		}
	}
	for _, rel := range s.Spec.Relations {
		var pairs []Pair
		for p := range s.Truth[rel.Name] {
			pairs = append(pairs, p)
		}
		sortPairs(pairs)
		for _, p := range pairs {
			emit(rel, p, true)
		}
		truth := s.Truth[rel.Name]
		made := 0
		for made < s.Spec.FalsePairsPerRel {
			p := s.pickPair(rng, rel)
			if truth[p] || truth[Pair{p.E2, p.E1}] {
				continue
			}
			emit(rel, p, false)
			made++
		}
	}
	return sentences
}

func (s *System) packDocs(rng *rand.Rand, sentences []string) {
	lo, hi := s.Spec.SentencesPerDoc[0], s.Spec.SentencesPerDoc[1]
	i := 0
	for d := 0; d < s.Spec.NumDocs && i < len(sentences); d++ {
		n := lo
		if hi > lo {
			n += rng.Intn(hi - lo + 1)
		}
		var doc []string
		for k := 0; k < n && i < len(sentences); k++ {
			doc = append(doc, sentences[i]+".")
			i++
		}
		s.Docs = append(s.Docs, strings.Join(doc, " "))
	}
	// Leftover sentences spill into extra docs so nothing is lost.
	for i < len(sentences) {
		var doc []string
		for k := 0; k < hi && i < len(sentences); k++ {
			doc = append(doc, sentences[i]+".")
			i++
		}
		s.Docs = append(s.Docs, strings.Join(doc, " "))
	}
}

func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's method; means here are tiny.
	threshold := math.Exp(-mean)
	l := 1.0
	for i := 0; ; i++ {
		l *= rng.Float64()
		if l < threshold {
			return i
		}
	}
}

func sortPairs(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func less(a, b Pair) bool {
	if a.E1 != b.E1 {
		return a.E1 < b.E1
	}
	return a.E2 < b.E2
}
