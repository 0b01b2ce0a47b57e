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
	"unicode/utf8"
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

// closedClass tags the heuristic tagger's dictionary words: determiners,
// prepositions, conjunctions, pronouns, forms of "be" and common verbs, a
// word listed twice taking its first class. A common verb ending in "ed"
// is VBD. One probe of one map tags any of them.
var closedClass = func() map[string]string {
	m := map[string]string{}
	add := func(tag, words string) {
		for _, w := range strings.Fields(words) {
			if _, dup := m[w]; dup {
				continue
			}
			if tag == "VB" && strings.HasSuffix(w, "ed") {
				m[w] = "VBD"
			} else {
				m[w] = tag
			}
		}
	}
	add("DT", "the a an this that these those")
	add("IN", "of in on at by for with from to between into over under near")
	add("CC", "and or but nor so yet")
	add("PRP", "he she it they we his her its their our who which")
	add("VB", "is are was were be been being am")
	add("VB", "married met said visited found reported causes inhibits "+
		"binds interacts occurs described collected attended wrote works tied")
	return m
}()

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
	var a [64]byte
	return tagLower(w, appendLower(a[:0], w))
}

// tagLower is tagWord given lw, the token lowered into a caller's buffer:
// the map probes and suffix tests read it in place.
func tagLower(w string, lw []byte) string {
	suffix := func(s string) bool { return len(lw) >= len(s) && string(lw[len(lw)-len(s):]) == s }
	switch {
	case isPunct(w):
		return "PUNCT"
	case isNumber(w):
		return "CD"
	}
	if tag, ok := closedClass[string(lw)]; ok {
		return tag
	}
	switch {
	case suffix("ed") && len(lw) > 4:
		return "VBD"
	case suffix("ing") && len(lw) > 5:
		return "VBG"
	case suffix("ly") && len(lw) > 4:
		return "RB"
	case suffix("ous") || suffix("ful") || suffix("ive"):
		return "JJ"
	case w != string(lw) && len(w) > 1: // capitalized
		return "NNP"
	default:
		return "NN"
	}
}

// appendLower appends strings.ToLower(w) to b, allocating nothing when w
// is ASCII.
func appendLower(b []byte, w string) []byte {
	for i := 0; i < len(w); i++ {
		if w[i] >= utf8.RuneSelf {
			return append(b, strings.ToLower(w)...)
		}
	}
	for i := 0; i < len(w); i++ {
		c := w[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
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

// asciiSpace holds unicode.IsSpace for the bytes below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields walks the tokens of a sentence in place: the fields
// strings.Fields returns, split on runs of unicode.IsSpace.
type fields struct {
	s string
	i int
}

// next returns the next token, or false past the last one.
func (f *fields) next() (string, bool) {
	s, i := f.s, f.i
	space := func(i int) (bool, int) {
		if c := s[i]; c < utf8.RuneSelf {
			return asciiSpace[c], 1
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		return unicode.IsSpace(r), w
	}
	for i < len(s) {
		sp, w := space(i)
		if !sp {
			break
		}
		i += w
	}
	start := i
	for i < len(s) {
		sp, w := space(i)
		if sp {
			break
		}
		i += w
	}
	f.i = i
	return s[start:i], i > start
}

// between orders two spans and returns the token range strictly between
// them, as PhraseBetween and TagPath read it.
func between(aStart, aEnd, bStart, bEnd int) (lo, hi int) {
	if bEnd <= aStart {
		return bEnd, aStart
	}
	return aEnd, bStart
}

// PhraseBetweenText is PhraseBetween over strings.Fields(sent), reading
// the sentence in place: the result is its only allocation.
func PhraseBetweenText(sent string, aStart, aEnd, bStart, bEnd, maxWords int) string {
	lo, hi := between(aStart, aEnd, bStart, bEnd)
	if lo >= hi || lo < 0 {
		return ""
	}
	var a [128]byte
	out := a[:0]
	f := fields{s: sent}
	for k := 0; k < hi; k++ {
		w, ok := f.next()
		if !ok {
			return "" // hi is past the last token
		}
		if k >= lo && k < lo+maxWords {
			if k > lo {
				out = append(out, '_')
			}
			out = appendLower(out, w)
		}
	}
	return string(out)
}

// TagPathText is TagPath over strings.Fields(sent), reading the sentence
// in place and tagging each token without building a []Token.
func TagPathText(sent string, aStart, aEnd, bStart, bEnd int) string {
	lo, hi := between(aStart, aEnd, bStart, bEnd)
	if lo > hi || lo < 0 {
		return ""
	}
	var a [128]byte
	var lw [64]byte
	out := a[:0]
	f := fields{s: sent}
	n := 0 // tokens read
	for ; n <= hi; n++ {
		w, ok := f.next()
		if !ok {
			break
		}
		if n >= lo-1 {
			if len(out) > 0 {
				out = append(out, '-')
			}
			out = append(out, tagLower(w, appendLower(lw[:0], w))...)
		}
	}
	if hi > n {
		return ""
	}
	return string(out)
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
