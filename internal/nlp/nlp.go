// Package nlp is the lightweight NLP preprocessing substrate standing in
// for the Stanford CoreNLP pipeline the paper's systems run before
// DeepDive: sentence splitting, tokenization, a heuristic part-of-speech
// tagger, gazetteer-based named-entity recognition, and the feature
// functions (phrase-between, word sequences, tag paths) the paper's
// FE1/FE2 rules use as UDFs.
package nlp

import (
	"strings"
	"unicode"
)

// Token is one token with its heuristic part-of-speech tag.
type Token struct {
	Text string
	Tag  string
}

// SplitSentences splits a document into sentences on ./!/? boundaries,
// protecting common abbreviations and initials ("Dr.", "B. Obama").
func SplitSentences(doc string) []string {
	var out []string
	var cur strings.Builder
	abbrev := map[string]bool{
		"dr": true, "mr": true, "mrs": true, "ms": true, "prof": true,
		"inc": true, "corp": true, "vs": true, "etc": true, "jr": true,
		"st": true, "no": true, "fig": true, "al": true, "oct": true,
		"jan": true, "feb": true, "mar": true, "apr": true, "jun": true,
		"jul": true, "aug": true, "sep": true, "nov": true, "dec": true,
	}
	flush := func() {
		s := strings.TrimSpace(cur.String())
		if s != "" {
			out = append(out, s)
		}
		cur.Reset()
	}
	runes := []rune(doc)
	for i := 0; i < len(runes); i++ {
		c := runes[i]
		cur.WriteRune(c)
		if c != '.' && c != '!' && c != '?' {
			continue
		}
		if c == '.' {
			// Look back at the word before the period.
			s := cur.String()
			j := len(s) - 1
			for j > 0 && s[j-1] != ' ' && s[j-1] != '.' {
				j--
			}
			word := strings.ToLower(strings.TrimSuffix(s[j:], "."))
			if abbrev[word] || len(word) == 1 {
				continue // initial or abbreviation, not a boundary
			}
			// A digit on both sides ("Oct. 3, 1992" handled above; "3.5").
			if i+1 < len(runes) && unicode.IsDigit(runes[i+1]) {
				continue
			}
		}
		flush()
	}
	flush()
	return out
}

// Tokenize splits a sentence into word tokens, separating punctuation.
func Tokenize(sent string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range sent {
		switch {
		case unicode.IsSpace(r):
			flush()
		case r == ',' || r == ';' || r == ':' || r == '(' || r == ')' ||
			r == '!' || r == '?' || r == '"':
			flush()
			out = append(out, string(r))
		case r == '.':
			// Keep periods inside abbreviations/initials; final periods
			// become their own token.
			cur.WriteRune(r)
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	// Split trailing period from the final word ("1992." -> "1992", ".").
	if n := len(out); n > 0 {
		last := out[n-1]
		if len(last) > 1 && strings.HasSuffix(last, ".") && !isInitial(last) {
			out[n-1] = strings.TrimSuffix(last, ".")
			out = append(out, ".")
		}
	}
	return out
}

func isInitial(w string) bool {
	return len(w) == 2 && w[1] == '.' && unicode.IsUpper(rune(w[0]))
}

// determiner/preposition/verb dictionaries for the heuristic tagger.
var (
	determiners  = wordSet("the a an this that these those")
	prepositions = wordSet("of in on at by for with from to between into over under near")
	conjunctions = wordSet("and or but nor so yet")
	pronouns     = wordSet("he she it they we his her its their our who which")
	beVerbs      = wordSet("is are was were be been being am")
	commonVerbs  = wordSet("married met said visited found reported causes inhibits " +
		"binds interacts occurs described collected attended wrote works tied")
)

func wordSet(s string) map[string]bool {
	m := map[string]bool{}
	for _, w := range strings.Fields(s) {
		m[w] = true
	}
	return m
}

// Tag assigns a heuristic part-of-speech tag to each token. The tagset is
// a small Penn-style subset: NNP (proper), NN, VB, VBD, IN, DT, CC, PRP,
// JJ, CD, PUNCT.
func Tag(tokens []string) []Token {
	out := make([]Token, len(tokens))
	for i, w := range tokens {
		out[i] = Token{Text: w, Tag: tagWord(w)}
	}
	return out
}

func tagWord(w string) string {
	lw := strings.ToLower(w)
	switch {
	case isPunct(w):
		return "PUNCT"
	case isNumber(w):
		return "CD"
	case determiners[lw]:
		return "DT"
	case prepositions[lw]:
		return "IN"
	case conjunctions[lw]:
		return "CC"
	case pronouns[lw]:
		return "PRP"
	case beVerbs[lw]:
		return "VB"
	case commonVerbs[lw]:
		if strings.HasSuffix(lw, "ed") {
			return "VBD"
		}
		return "VB"
	case strings.HasSuffix(lw, "ed") && len(lw) > 4:
		return "VBD"
	case strings.HasSuffix(lw, "ing") && len(lw) > 5:
		return "VBG"
	case strings.HasSuffix(lw, "ly") && len(lw) > 4:
		return "RB"
	case strings.HasSuffix(lw, "ous") || strings.HasSuffix(lw, "ful") || strings.HasSuffix(lw, "ive"):
		return "JJ"
	case w != lw && len(w) > 1: // capitalized
		return "NNP"
	default:
		return "NN"
	}
}

func isPunct(w string) bool {
	for _, r := range w {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return false
		}
	}
	return len(w) > 0
}

func isNumber(w string) bool {
	digits := 0
	for _, r := range w {
		if unicode.IsDigit(r) {
			digits++
		} else if r != '.' && r != ',' && r != '-' {
			return false
		}
	}
	return digits > 0
}

// Mention is a recognized entity mention: a token span with an entity
// type and the linked entity id (gazetteer-based entity linking).
type Mention struct {
	Start, End int // token span [Start, End)
	Text       string
	Type       string
	Entity     string
}

// Gazetteer maps surface forms to (type, entity id). Multi-word names use
// single spaces between tokens.
type Gazetteer struct {
	entries map[string]gazEntry
	maxLen  int
}

type gazEntry struct {
	typ, entity string
}

// NewGazetteer builds an empty gazetteer.
func NewGazetteer() *Gazetteer {
	return &Gazetteer{entries: make(map[string]gazEntry), maxLen: 1}
}

// Add registers a surface form for an entity.
func (g *Gazetteer) Add(surface, typ, entity string) {
	g.entries[surface] = gazEntry{typ: typ, entity: entity}
	if n := len(strings.Fields(surface)); n > g.maxLen {
		g.maxLen = n
	}
}

// Len returns the number of surface forms.
func (g *Gazetteer) Len() int { return len(g.entries) }

// Recognize finds non-overlapping mentions by greedy longest match over
// the token sequence.
func (g *Gazetteer) Recognize(tokens []string) []Mention {
	var out []Mention
	for i := 0; i < len(tokens); {
		matched := false
		for l := min(g.maxLen, len(tokens)-i); l >= 1; l-- {
			surface := strings.Join(tokens[i:i+l], " ")
			if e, ok := g.entries[surface]; ok {
				out = append(out, Mention{
					Start: i, End: i + l, Text: surface, Type: e.typ, Entity: e.entity,
				})
				i += l
				matched = true
				break
			}
		}
		if !matched {
			i++
		}
	}
	return out
}

// PhraseBetween returns the normalized word sequence strictly between two
// token spans, truncated to maxWords (the paper's phrase(m1, m2, sent)
// feature). Spans may be given in either order.
func PhraseBetween(tokens []string, aStart, aEnd, bStart, bEnd, maxWords int) string {
	lo, hi := aEnd, bStart
	if bEnd <= aStart {
		lo, hi = bEnd, aStart
	}
	if lo >= hi || lo < 0 || hi > len(tokens) {
		return ""
	}
	words := tokens[lo:hi]
	if len(words) > maxWords {
		words = words[:maxWords]
	}
	norm := make([]string, len(words))
	for i, w := range words {
		norm[i] = strings.ToLower(w)
	}
	return strings.Join(norm, "_")
}

// TagPath returns the part-of-speech tag sequence between two spans plus
// one token of context on each side — the "deeper" dependency-path-like
// feature backing the paper's FE2 rules.
func TagPath(tokens []string, aStart, aEnd, bStart, bEnd int) string {
	lo, hi := aEnd, bStart
	if bEnd <= aStart {
		lo, hi = bEnd, aStart
	}
	if lo > hi || lo < 0 || hi > len(tokens) {
		return ""
	}
	from := max(lo-1, 0)
	to := min(hi+1, len(tokens))
	tags := Tag(tokens[from:to])
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = t.Tag
	}
	return strings.Join(parts, "-")
}

// WindowWords returns lowercase tokens in a window before and after a
// span, prefixed with their offset direction ("L:..."/"R:..."), a
// bag-of-words-style context feature.
func WindowWords(tokens []string, start, end, window int) []string {
	var out []string
	for i := max(start-window, 0); i < start; i++ {
		out = append(out, "L:"+strings.ToLower(tokens[i]))
	}
	for i := end; i < min(end+window, len(tokens)); i++ {
		out = append(out, "R:"+strings.ToLower(tokens[i]))
	}
	return out
}
