package kbc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"deepdive/internal/corpus"
	"deepdive/internal/db"
)

// baseTuplesDigest is a SHA-256 over BaseTuples of every system: each
// relation in name order, its tuples in extraction order, every value
// length-prefixed.
func baseTuplesDigest(systems []*corpus.System) string {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, sys := range systems {
		base := BaseTuples(sys)
		rels := make([]string, 0, len(base))
		for rel := range base {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		put(sys.Spec.Name)
		for _, rel := range rels {
			put(rel)
			binary.LittleEndian.PutUint64(n[:], uint64(len(base[rel])))
			h.Write(n[:])
			for _, tu := range base[rel] {
				for _, v := range tu {
					put(v)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// systemsAt generates the five systems at their default sizes under seed.
func systemsAt(seed int64) []*corpus.System {
	var out []*corpus.System
	for _, spec := range []corpus.Spec{corpus.Adversarial(), corpus.News(), corpus.Genomics(), corpus.Pharma(), corpus.Paleontology()} {
		spec.Seed = seed
		out = append(out, corpus.Generate(spec))
	}
	return out
}

// TestBaseTuplesPinned holds what extraction produces — the sentences,
// their tokens, the mentions and their ids, the KB, NegKB and SeedKB
// tables — to digests recorded before the NLP substrate sliced its input
// instead of rebuilding it, on the five systems at their shipped seeds and
// at seeds 1, 2, 3 and 7.
func TestBaseTuplesPinned(t *testing.T) {
	if got, want := baseTuplesDigest(corpus.AllSystems()), "9f9db45dc5f2d7f19ff5aa000d6cc149c42d8e2473c85bab38a59fadb521df03"; got != want {
		t.Errorf("BaseTuples of the five systems: digest %s, pinned %s", got, want)
	}
	for seed, want := range map[int64]string{
		1: "56501e4a7044abeb4bc0fda95dffda6fb7dbdf42b1c5f2a7aad669dfba13bc62",
		2: "53697718c287344496e9dd1b41c8e7179e4de268153493ff7d3ad3b49795fbee",
		3: "e33d1ffdd15d1c55ac20a8362660808ca696503785c24c1c22281eaca8dbaba0",
		7: "d8b4f19d8cb03cd913493cc62c9959de9a8e7f2bdb45e0ab2b53770f2e37d587",
	} {
		if got := baseTuplesDigest(systemsAt(seed)); got != want {
			t.Errorf("BaseTuples of the five systems at seed %d: digest %s, pinned %s", seed, got, want)
		}
	}
}

var sinkTuples map[string][]db.Tuple

// TestBaseTuplesAllocations holds extraction's allocations per extracted
// sentence on the five systems: 9.7 (a sentence's token slice, text, id,
// tuple and mention slice, each of its 1.9 mentions' id and tuple, a
// document's sentence slice). Before the NLP substrate sliced its input it
// was 54.8: every sentence and token rebuilt rune by rune, an abbreviation
// table per document, a joined string per gazetteer probe and fmt.Sprintf
// ids.
func TestBaseTuplesAllocations(t *testing.T) {
	systems := corpus.AllSystems()
	sentences := 0
	for _, sys := range systems {
		sentences += len(BaseTuples(sys)["Sentence"])
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, sys := range systems {
			sinkTuples = BaseTuples(sys)
		}
	})
	perSentence := allocs / float64(sentences)
	t.Logf("%.0f allocations for %d sentences: %.2f per sentence", allocs, sentences, perSentence)
	if perSentence > 12 {
		t.Errorf("BaseTuples allocates %.2f times per sentence, bar 12", perSentence)
	}
}

// BenchmarkBaseTuples extracts the base relations of the five systems at
// their default sizes: one op is all five.
func BenchmarkBaseTuples(b *testing.B) {
	systems := corpus.AllSystems()
	sentences := 0
	for _, sys := range systems {
		sentences += len(BaseTuples(sys)["Sentence"])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			sinkTuples = BaseTuples(sys)
		}
	}
	b.ReportMetric(float64(sentences), "sentences/op")
}
