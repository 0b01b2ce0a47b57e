package kbc

import (
	"fmt"
	"strings"
	"testing"

	"deepdive/internal/corpus"
	"deepdive/internal/nlp"
)

// referenceUDFs are the feature UDFs as they read the sentence before
// reading it in place: tokenized by strings.Fields, then nlp.PhraseBetween
// and nlp.TagPath over the token slice.
func referenceUDFs(name string, args []string) string {
	_, aS, aE, ok1 := ParseMentionID(args[0])
	_, bS, bE, ok2 := ParseMentionID(args[1])
	if !ok1 || !ok2 {
		return "bad"
	}
	tokens := strings.Fields(args[2])
	switch name {
	case "phrase":
		if p := nlp.PhraseBetween(tokens, aS, aE, bS, bE, 4); p != "" {
			return p
		}
		return "adjacent"
	case "tagpath":
		if p := nlp.TagPath(tokens, aS, aE, bS, bE); p != "" {
			return p
		}
		return "overlap"
	}
	panic(name)
}

// TestUDFsMatchTokenSliceReference pins the in-place feature UDFs to the
// token-slice reference byte for byte: on every ordered pair of mentions of
// one sentence in the five generated systems, and on hand-made spans
// (adjacent, overlapping, reversed, out of range) over sentences with
// non-ASCII letters and whitespace.
func TestUDFsMatchTokenSliceReference(t *testing.T) {
	udfs := UDFs()
	check := func(args []string) {
		t.Helper()
		for _, name := range []string{"phrase", "tagpath"} {
			if got, want := udfs[name](args), referenceUDFs(name, args); got != want {
				t.Fatalf("%s%q = %q, reference %q", name, args, got, want)
			}
		}
	}
	pairs := 0
	for _, sys := range corpus.AllSystems() {
		base := BaseTuples(sys)
		text := map[string]string{}
		for _, s := range base["Sentence"] {
			text[s[0]] = s[1]
		}
		bySent := map[string][]string{}
		for _, m := range base["Mention"] {
			bySent[m[1]] = append(bySent[m[1]], m[0])
		}
		for sid, ms := range bySent {
			for _, a := range ms {
				for _, b := range ms {
					check([]string{a, b, text[sid]})
					pairs++
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d mention pairs compared", pairs)
	}
	sentences := []string{
		"",
		"   ",
		"B. Obama married Michelle in Chicago .",
		"  Marie Curie\tand Pierre  Curie\u0085were married\n in Paris ",
		"ÉMILE Zola wrote İstanbul NOTES quickly , Ünal said",
		"bad \xff bytes \xe2\x80 here",
		"UPPER CASE WORDS WERE REPORTED LOUDLY BY THE EDITORS OF FAMOUS PAPERS",
	}
	for _, sent := range sentences {
		n := len(strings.Fields(sent))
		for aS := -1; aS <= n+1; aS++ {
			for aE := aS; aE <= n+2; aE++ {
				for bS := -1; bS <= n+1; bS++ {
					for _, bE := range []int{bS, bS + 1, bS + 2, n + 3} {
						check([]string{fmt.Sprintf("m:s:%d:%d", aS, aE), fmt.Sprintf("m:s:%d:%d", bS, bE), sent})
					}
				}
			}
		}
	}
	check([]string{"m:s:0:1", "x", "a b"})
}

// TestUDFsReadSentenceInPlace: a phrase or tag-path evaluation allocates
// its result and nothing else on an ASCII sentence.
func TestUDFsReadSentenceInPlace(t *testing.T) {
	udfs := UDFs()
	args := []string{"m:s1:0:2", "m:s1:6:8", "Barack Obama and his wife , Michelle Obama , were married in Chicago ."}
	for _, name := range []string{"phrase", "tagpath", "proximity"} {
		allocs := testing.AllocsPerRun(100, func() { udfs[name](args) })
		if allocs > 1 {
			t.Errorf("%s allocates %.0f times per call, want at most 1 (its result)", name, allocs)
		}
	}
}
