package nlp

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

func TestSplitSentences(t *testing.T) {
	doc := "B. Obama married Michelle Oct. 3, 1992. They live in Washington. Dr. Smith agrees!"
	got := SplitSentences(doc)
	if len(got) != 3 {
		t.Fatalf("got %d sentences: %q", len(got), got)
	}
	if !strings.HasPrefix(got[0], "B. Obama") || !strings.HasSuffix(got[0], "1992.") {
		t.Fatalf("sentence 0 = %q", got[0])
	}
	if !strings.HasPrefix(got[2], "Dr. Smith") {
		t.Fatalf("sentence 2 = %q", got[2])
	}
}

func TestSplitSentencesEdgeCases(t *testing.T) {
	if got := SplitSentences(""); len(got) != 0 {
		t.Fatalf("empty doc gave %v", got)
	}
	if got := SplitSentences("No terminator here"); len(got) != 1 {
		t.Fatalf("unterminated doc gave %v", got)
	}
	if got := SplitSentences("One? Two! Three."); len(got) != 3 {
		t.Fatalf("mixed punctuation gave %v", got)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("B. Obama and Michelle were married, in 1992.")
	want := []string{"B.", "Obama", "and", "Michelle", "were", "married", ",", "in", "1992", "."}
	if len(got) != len(want) {
		t.Fatalf("tokens = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTagHeuristics(t *testing.T) {
	cases := map[string]string{
		"the":     "DT",
		"of":      "IN",
		"and":     "CC",
		"married": "VBD",
		"is":      "VB",
		"1992":    "CD",
		"Obama":   "NNP",
		"wife":    "NN",
		"quickly": "RB",
		"running": "VBG",
		"famous":  "JJ",
		",":       "PUNCT",
		"he":      "PRP",
		"met":     "VB",  // a common verb without the "ed" suffix
		"tied":    "VBD", // a common verb with it, shorter than the suffix rule's
		"Were":    "VB",  // the dictionary reads the lowered word
		"those":   "DT",
		"which":   "PRP",
		"yet":     "CC",
	}
	for w, want := range cases {
		if got := tagWord(w); got != want {
			t.Errorf("tagWord(%q) = %q, want %q", w, got, want)
		}
	}
	tags := Tag([]string{"the", "wife"})
	if tags[0].Tag != "DT" || tags[1].Text != "wife" {
		t.Fatalf("Tag = %+v", tags)
	}
}

// TestASCIISpace: the tokenizer's byte table agrees with unicode.IsSpace
// on every byte below utf8.RuneSelf.
func TestASCIISpace(t *testing.T) {
	for c := 0; c < utf8.RuneSelf; c++ {
		if asciiSpace[c] != unicode.IsSpace(rune(c)) {
			t.Errorf("asciiSpace[%#x] = %v, unicode.IsSpace says %v", c, asciiSpace[c], !asciiSpace[c])
		}
	}
}

func TestGazetteerRecognize(t *testing.T) {
	g := NewGazetteer()
	g.Add("Barack Obama", "Person", "e1")
	g.Add("Obama", "Person", "e1")
	g.Add("Michelle", "Person", "e2")
	tokens := Tokenize("Barack Obama and Michelle were married")
	ms := g.Recognize(tokens)
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v, want 2", ms)
	}
	// Longest match wins: "Barack Obama", not "Obama".
	if ms[0].Text != "Barack Obama" || ms[0].Start != 0 || ms[0].End != 2 {
		t.Fatalf("mention 0 = %+v", ms[0])
	}
	if ms[1].Entity != "e2" || ms[1].Type != "Person" {
		t.Fatalf("mention 1 = %+v", ms[1])
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestGazetteerNoOverlap(t *testing.T) {
	g := NewGazetteer()
	g.Add("New York", "Location", "l1")
	g.Add("York", "Location", "l2")
	ms := g.Recognize([]string{"New", "York", "York"})
	if len(ms) != 2 || ms[0].Text != "New York" || ms[1].Text != "York" {
		t.Fatalf("mentions = %+v", ms)
	}
}

func TestPhraseBetween(t *testing.T) {
	tokens := Tokenize("Barack Obama and his wife Michelle were married")
	// spans: [0,2) and [5,6)
	got := PhraseBetween(tokens, 0, 2, 5, 6, 4)
	if got != "and_his_wife" {
		t.Fatalf("phrase = %q", got)
	}
	// Reversed order gives the same phrase.
	if rev := PhraseBetween(tokens, 5, 6, 0, 2, 4); rev != got {
		t.Fatalf("reversed phrase = %q, want %q", rev, got)
	}
	// Adjacent spans give empty.
	if adj := PhraseBetween(tokens, 0, 2, 2, 3, 4); adj != "" {
		t.Fatalf("adjacent phrase = %q", adj)
	}
	// Truncation.
	long := PhraseBetween(tokens, 0, 1, 7, 8, 2)
	if strings.Count(long, "_") != 1 {
		t.Fatalf("truncated phrase = %q", long)
	}
}

func TestTagPath(t *testing.T) {
	tokens := []string{"Obama", "married", "Michelle"}
	got := TagPath(tokens, 0, 1, 2, 3)
	// Window: token 0 (NNP), between: married (VBD), token 2 (NNP).
	if got != "NNP-VBD-NNP" {
		t.Fatalf("tag path = %q", got)
	}
}

func TestWindowWords(t *testing.T) {
	tokens := []string{"the", "famous", "Obama", "visited", "Paris"}
	got := WindowWords(tokens, 2, 3, 2)
	want := []string{"L:the", "L:famous", "R:visited", "R:paris"}
	if len(got) != len(want) {
		t.Fatalf("window = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// At the boundary.
	if got := WindowWords(tokens, 0, 1, 2); len(got) != 2 {
		t.Fatalf("boundary window = %v", got)
	}
}
