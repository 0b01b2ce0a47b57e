package nlp

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"

	"deepdive/internal/corpus"
)

// splitSentencesRef, tokenizeRef and recognizeRef are SplitSentences,
// Tokenize and Gazetteer.Recognize as first written: every sentence and
// token rebuilt one rune at a time, the abbreviation table built per call,
// a joined string per gazetteer probe. The slicing versions must agree
// with them exactly.

func splitSentencesRef(doc string) []string {
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
			s := cur.String()
			j := len(s) - 1
			for j > 0 && s[j-1] != ' ' && s[j-1] != '.' {
				j--
			}
			word := strings.ToLower(strings.TrimSuffix(s[j:], "."))
			if abbrev[word] || len(word) == 1 {
				continue
			}
			if i+1 < len(runes) && unicode.IsDigit(runes[i+1]) {
				continue
			}
		}
		flush()
	}
	flush()
	return out
}

func tokenizeRef(sent string) []string {
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
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	if n := len(out); n > 0 {
		last := out[n-1]
		if len(last) > 1 && strings.HasSuffix(last, ".") && !isInitial(last) {
			out[n-1] = strings.TrimSuffix(last, ".")
			out = append(out, ".")
		}
	}
	return out
}

// recognizeRef reads g's surface forms only: the longest match it tries
// is the most strings.Fields parts of any of them.
func recognizeRef(g *Gazetteer, tokens []string) []Mention {
	maxLen := 1
	for surface := range g.entries {
		maxLen = max(maxLen, len(strings.Fields(surface)))
	}
	var out []Mention
	for i := 0; i < len(tokens); {
		matched := false
		for l := min(maxLen, len(tokens)-i); l >= 1; l-- {
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

// checkSubstrate runs doc through SplitSentences, Tokenize and g's
// Recognize and fails t where any of them differs from its reference (an
// empty split is nil there and may be empty here). It also recognizes over
// doc split on single spaces, which gives empty tokens and tokens holding
// other whitespace. It returns the number of sentences split.
func checkSubstrate(t *testing.T, g *Gazetteer, doc string) int {
	t.Helper()
	sents, want := SplitSentences(doc), splitSentencesRef(doc)
	if !slices.Equal(sents, want) {
		t.Fatalf("SplitSentences(%q) = %q, reference %q", doc, sents, want)
	}
	for _, s := range sents {
		tokens, want := Tokenize(s), tokenizeRef(s)
		if !slices.Equal(tokens, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, tokens, want)
		}
		checkRecognize(t, g, tokens)
	}
	checkRecognize(t, g, strings.Split(doc, " "))
	return len(sents)
}

func checkRecognize(t *testing.T, g *Gazetteer, tokens []string) {
	t.Helper()
	if got, want := g.Recognize(tokens), recognizeRef(g, tokens); !reflect.DeepEqual(got, want) {
		t.Fatalf("Recognize(%q) = %+v, reference %+v", tokens, got, want)
	}
}

// substrateDocs are hand-made documents on the edges of the splitter and
// the tokenizer.
var substrateDocs = []string{
	"", " ", ".", "..", "...", "!", "?!", " . ", "a", "a.", "a. ", "A.", "ab.", "Ab. Cd.",
	"B. Obama married Michelle Oct. 3, 1992. They live in Washington. Dr. Smith agrees!",
	"Dr.Smith met Mr. Jones. Mrs. Ms. Prof. Inc. Corp. vs. etc. Jr. St. No. Fig. al.",
	"DR. X. OCT. Dec. dec. dEc. NOV.5 sep.x",
	"U.S.A. is big. J.R.R. Tolkien wrote. e.g. this. i.e. that.",
	"It rose 3.5 percent. Then 4.25. Then .5 of it. And 7.", "Version 1.2.3. Next.",
	"Ends with a period.", "Ends with two periods..", "Trailing space. ", "No terminator",
	"Quotes \"here\" (and there): a, b; c! d? e.",
	"Tabs\tand\nnewlines\r\nand\vvertical\fform.feed.",
	"Non-ASCII space and　ideographic line. Next.",
	"Ünïcödé wörds. Ça va. Größe ist 3.5 m. Zürich. É. Ö. ß.",
	"Digits: ٣.٤ and ३.५ are digits too. Fullwidth ３.５ also.",
	"Kelvin K. Dotted İ. KK. Σ. σ. ς.",
	"Invalid \xff bytes \xfe. here.\xc3 And \xc3\x28 there. \xed\xa0\x80.",
	"\xff.\xff \x80. \xe2\x82. end",
	"Initials A. B. Cee. a.b. A.B.C. X.Y",
	"Mixed!?.Punctuation...!? Done", "word.word.word. Word", "(Parens.) [Brackets.] {Braces.}",
	"Barack Obama and  Michelle Obama met New York York. Smith, John went to New  York.",
	"Alpha Beta Gamma Delta. Alpha Beta. Alpha. Beta Gamma.",
}

// substrateGazetteer registers multi-word, single-word, nested and
// never-matching surfaces: one with a double space, one with punctuation,
// one with a tab, one with a leading space, the empty surface.
func substrateGazetteer() *Gazetteer {
	g := NewGazetteer()
	for i, s := range []string{
		"Barack Obama", "Obama", "Michelle", "Michelle Obama", "New York", "York", "New",
		"Alpha Beta Gamma", "Alpha", "Beta Gamma", "Gamma Delta",
		"New  York", "Smith, John", "Smith", "Tab\tword", " leading", "", "Ünïcödé wörds",
		"3.5", "Dr. Smith", "and  Michelle",
	} {
		g.Add(s, "T", fmt.Sprintf("e%d", i))
	}
	return g
}

// TestSubstrateMatchesReference holds SplitSentences, Tokenize and
// Recognize to their references exactly: over every document of the five
// systems at their shipped seeds and at seeds 1, 2, 3 and 7 (each system's
// own gazetteer), and over hand-made documents (invalid UTF-8, non-ASCII
// spaces, letters and digits, abbreviations, initials, "3.5", trailing
// periods) against a gazetteer with surfaces that cannot match a token
// span.
func TestSubstrateMatchesReference(t *testing.T) {
	g := substrateGazetteer()
	for _, doc := range substrateDocs {
		checkSubstrate(t, g, doc)
	}
	sents := 0
	for _, seed := range []int64{0, 1, 2, 3, 7} {
		for _, spec := range []corpus.Spec{corpus.Adversarial(), corpus.News(), corpus.Genomics(), corpus.Pharma(), corpus.Paleontology()} {
			if seed != 0 {
				spec.Seed = seed
			}
			sys := corpus.Generate(spec)
			g := NewGazetteer()
			for eid, surface := range sys.Surface {
				g.Add(surface, "T", eid)
			}
			for _, doc := range sys.Docs {
				sents += checkSubstrate(t, g, doc)
			}
		}
	}
	t.Logf("%d generated sentences and %d hand-made documents agree with the references", sents, len(substrateDocs))
}

// FuzzNLPSubstrate splits, tokenizes and recognizes an arbitrary document
// against a small gazetteer drawn from it: every output equals the
// reference's.
func FuzzNLPSubstrate(f *testing.F) {
	for _, doc := range substrateDocs {
		f.Add(doc, "Obama|New York|Alpha Beta")
	}
	f.Add("x y. z", "x y|y|x  y|, z")
	f.Fuzz(func(t *testing.T, doc, surfaces string) {
		g := NewGazetteer()
		for i, s := range strings.SplitN(surfaces, "|", 8) {
			g.Add(s, "T", fmt.Sprint(i))
		}
		// Surfaces from the document itself, so that some of them match.
		if ws := strings.Fields(doc); len(ws) > 0 {
			g.Add(ws[0], "W", "first")
			g.Add(strings.Join(ws[len(ws)/2:min(len(ws)/2+3, len(ws))], " "), "W", "middle")
		}
		checkSubstrate(t, g, doc)
	})
}
