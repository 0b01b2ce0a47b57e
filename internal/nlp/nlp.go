// Package nlp is the lightweight NLP preprocessing substrate standing in
// for the Stanford CoreNLP pipeline the paper's systems run before
// DeepDive: sentence splitting, tokenization, a heuristic part-of-speech
// tagger, gazetteer-based named-entity recognition, and the feature
// functions (phrase-between, word sequences, tag paths) the paper's
// FE1/FE2 rules use as UDFs.
//
// Extraction slices its input instead of rebuilding it: the sentences
// SplitSentences returns are substrings of the document and the tokens
// Tokenize returns are substrings of the sentence, so each keeps its input
// alive. A caller that keeps a sentence or a token past its document, and
// not the document, copies it (kbc.BaseTuples joins the tokens into a
// fresh string).
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
// protecting common abbreviations and initials ("Dr.", "B. Obama"). Each
// sentence is a substring of doc (of its valid UTF-8 form, where doc holds
// invalid bytes: each becomes U+FFFD), so it keeps doc alive.
func SplitSentences(doc string) []string {
	doc = validUTF8(doc)
	// Every sentence but the last ends at a boundary character.
	out := make([]string, 0, strings.Count(doc, ".")+strings.Count(doc, "!")+strings.Count(doc, "?")+1)
	flush := func(s string) {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	start := 0 // the current sentence's first byte: past the last boundary
	for i := 0; i < len(doc); i++ {
		c := doc[i]
		if c != '.' && c != '!' && c != '?' {
			continue
		}
		if c == '.' && !periodEnds(doc, start, i) {
			continue
		}
		flush(doc[start : i+1])
		start = i + 1
	}
	flush(doc[start:])
	return out
}

// periodEnds reports whether the period at doc[i] ends the sentence that
// began at doc[start]: not when the word before it (back to a space or a
// period, within the sentence) is an abbreviation or one letter long, nor
// when a digit follows it ("3.5").
func periodEnds(doc string, start, i int) bool {
	j := i
	for j > start && doc[j-1] != ' ' && doc[j-1] != '.' {
		j--
	}
	// A word of more than 16 bytes has more than four runes and lowers to
	// more bytes than the longest abbreviation; one of at most 16 lowers
	// to at most 32.
	if word := doc[j:i]; len(word) <= 16 {
		var a [32]byte
		lw := appendLower(a[:0], word)
		if abbreviations[string(lw)] || len(lw) == 1 {
			return false
		}
	}
	r, _ := utf8.DecodeRuneInString(doc[i+1:])
	return !unicode.IsDigit(r)
}

// abbreviations are the lowered words whose period ends no sentence.
var abbreviations = map[string]bool{
	"dr": true, "mr": true, "mrs": true, "ms": true, "prof": true,
	"inc": true, "corp": true, "vs": true, "etc": true, "jr": true,
	"st": true, "no": true, "fig": true, "al": true, "oct": true,
	"jan": true, "feb": true, "mar": true, "apr": true, "jun": true,
	"jul": true, "aug": true, "sep": true, "nov": true, "dec": true,
}

// validUTF8 returns s, or where s holds invalid UTF-8, s with each invalid
// byte replaced by U+FFFD, as ranging over s decodes it.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// Tokenize splits a sentence into word tokens, separating punctuation.
// Each token is a substring of sent (of its valid UTF-8 form, as
// SplitSentences), so it keeps sent alive.
func Tokenize(sent string) []string {
	sent = validUTF8(sent)
	// A token per space-separated word, and room for a punctuation mark
	// and a split final period.
	out := make([]string, 0, strings.Count(sent, " ")+2)
	start := -1 // the current token's first byte, -1 between tokens
	flush := func(i int) {
		if start >= 0 {
			out = append(out, sent[start:i])
			start = -1
		}
	}
	for i := 0; i < len(sent); {
		c, w := sent[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRuneInString(sent[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space:
			flush(i)
		case c == ',' || c == ';' || c == ':' || c == '(' || c == ')' ||
			c == '!' || c == '?' || c == '"':
			flush(i)
			out = append(out, sent[i:i+1])
		default:
			// Periods stay inside abbreviations/initials; a final period
			// becomes its own token below.
			if start < 0 {
				start = i
			}
		}
		i += w
	}
	flush(len(sent))
	// Split trailing period from the final word ("1992." -> "1992", ".").
	if n := len(out); n > 0 {
		last := out[n-1]
		if len(last) > 1 && strings.HasSuffix(last, ".") && !isInitial(last) {
			out[n-1] = last[:len(last)-1]
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
	// parts maps the first space-separated part of a surface to the most
	// space-separated parts of any surface starting with it: no longer
	// span starting with that token can match.
	parts  map[string]int
	maxLen int // the most strings.Fields parts of any surface
}

type gazEntry struct {
	surface, typ, entity string
}

// NewGazetteer builds an empty gazetteer.
func NewGazetteer() *Gazetteer {
	return &Gazetteer{entries: make(map[string]gazEntry), parts: make(map[string]int), maxLen: 1}
}

// Add registers a surface form for an entity.
func (g *Gazetteer) Add(surface, typ, entity string) {
	g.entries[surface] = gazEntry{surface: surface, typ: typ, entity: entity}
	first, _, _ := strings.Cut(surface, " ")
	g.parts[first] = max(g.parts[first], strings.Count(surface, " ")+1)
	if n := len(strings.Fields(surface)); n > g.maxLen {
		g.maxLen = n
	}
}

// Len returns the number of surface forms.
func (g *Gazetteer) Len() int { return len(g.entries) }

// Recognize finds non-overlapping mentions by greedy longest match over
// the token sequence. A span matches a surface equal to its tokens joined
// by single spaces; a mention's Text is that surface.
func (g *Gazetteer) Recognize(tokens []string) []Mention {
	var out []Mention
	var a [128]byte
	buf := a[:0]
	for i := 0; i < len(tokens); {
		// A span's joined text starts with its first token's first
		// space-separated part, and it has at least as many parts as
		// tokens: a token no surface starts with matches nothing. Spans
		// stay within maxLen too, which only an empty token can exceed.
		first, _, _ := strings.Cut(tokens[i], " ")
		n := min(g.parts[first], g.maxLen, len(tokens)-i)
		if n == 0 {
			i++
			continue
		}
		buf = append(buf[:0], tokens[i]...)
		for _, t := range tokens[i+1 : i+n] {
			buf = append(append(buf, ' '), t...)
		}
		// Longest first: each shorter span's text is a prefix of buf.
		end, l := len(buf), n
		for ; l >= 1; l-- {
			if e, ok := g.entries[string(buf[:end])]; ok {
				if out == nil {
					out = make([]Mention, 0, 2) // a candidate pair
				}
				out = append(out, Mention{Start: i, End: i + l, Text: e.surface, Type: e.typ, Entity: e.entity})
				break
			}
			end -= len(tokens[i+l-1]) + 1
		}
		i += max(l, 1)
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
