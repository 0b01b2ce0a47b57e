package kbc

import (
	"math"

	"deepdive"
	"deepdive/internal/corpus"
)

// Scores are the paper's quality measures: precision (how often a claimed
// tuple is correct) and recall (how many of the possible tuples were
// extracted), combined into F1.
type Scores struct {
	Precision, Recall, F1 float64
	TP, FP, FN            int
}

func scoresFrom(tp, fp, fn int) Scores {
	s := Scores{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		s.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		s.Recall = float64(tp) / float64(tp+fn)
	}
	if s.Precision+s.Recall > 0 {
		s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
	return s
}

// eachFact calls f for every live fact kb serves of every target
// relation whose two mentions are linked to entities (through the KB's
// Mention relation), with the generator's verdict on the entity pair.
func eachFact(sys *corpus.System, kb *deepdive.KB, f func(fact deepdive.Fact, truth bool)) {
	entity := map[string]string{}
	for _, m := range kb.Relation("Mention") {
		entity[m[0]] = m[3]
	}
	snap := kb.Snapshot()
	for _, r := range sys.Spec.Relations {
		for _, fact := range snap.Facts(relVar(r.Name)) {
			e1, ok1 := entity[fact.Tuple[0]]
			e2, ok2 := entity[fact.Tuple[1]]
			if ok1 && ok2 {
				f(fact, sys.IsTrue(r.Name, e1, e2))
			}
		}
	}
}

// Evaluate scores the knowledge base kb currently serves against the
// generator's exact ground truth, micro-averaged over every target
// relation. The output KB consists of every candidate fact whose
// probability clears the threshold; evidence facts contribute their
// supervised value (distant supervision puts facts into the KB directly,
// which is part of why the paper's S rules improve end-to-end quality).
func Evaluate(sys *corpus.System, kb *deepdive.KB, threshold float64) Scores {
	tp, fp, fn := 0, 0, 0
	eachFact(sys, kb, func(f deepdive.Fact, truth bool) {
		pred := f.Known && f.Probability > threshold
		if f.Evidence {
			pred = f.Probability == 1
		}
		switch {
		case pred && truth:
			tp++
		case pred && !truth:
			fp++
		case !pred && truth:
			fn++
		}
	})
	return scoresFrom(tp, fp, fn)
}

// Fact identifies one extracted fact at mention level.
type Fact struct {
	Rel    string
	M1, M2 string
}

// FactProbs returns the marginal probability of every query fact kb
// serves.
func FactProbs(sys *corpus.System, kb *deepdive.KB) map[Fact]float64 {
	out := map[Fact]float64{}
	snap := kb.Snapshot()
	for _, r := range sys.Spec.Relations {
		for _, f := range snap.Facts(relVar(r.Name)) {
			if f.Known && !f.Evidence {
				out[Fact{Rel: r.Name, M1: f.Tuple[0], M2: f.Tuple[1]}] = f.Probability
			}
		}
	}
	return out
}

// OverlapStats quantifies how similar two runs' extractions are — the
// paper's Section 4.2 comparison between Rerun and Incremental: the
// fraction of high-confidence facts of a appearing in b (and vice versa),
// and the fraction of shared facts whose probabilities differ by more
// than probTol.
type OverlapStats struct {
	HighConfOverlapAB float64 // of a's high-confidence facts, fraction also high-confidence in b
	HighConfOverlapBA float64
	FracLargeDiff     float64 // fraction of shared facts with |pa-pb| > probTol
	Shared            int
}

// CompareFacts computes OverlapStats between two fact-probability maps.
func CompareFacts(a, b map[Fact]float64, highConf, probTol float64) OverlapStats {
	var st OverlapStats
	countA, inB := 0, 0
	for f, pa := range a {
		if pa > highConf {
			countA++
			if pb, ok := b[f]; ok && pb > highConf {
				inB++
			}
		}
	}
	if countA > 0 {
		st.HighConfOverlapAB = float64(inB) / float64(countA)
	} else {
		st.HighConfOverlapAB = 1
	}
	countB, inA := 0, 0
	for f, pb := range b {
		if pb > highConf {
			countB++
			if pa, ok := a[f]; ok && pa > highConf {
				inA++
			}
		}
	}
	if countB > 0 {
		st.HighConfOverlapBA = float64(inA) / float64(countB)
	} else {
		st.HighConfOverlapBA = 1
	}
	large := 0
	for f, pa := range a {
		pb, ok := b[f]
		if !ok {
			continue
		}
		st.Shared++
		if math.Abs(pa-pb) > probTol {
			large++
		}
	}
	if st.Shared > 0 {
		st.FracLargeDiff = float64(large) / float64(st.Shared)
	}
	return st
}

// CalibrationBin is one bucket of a calibration curve.
type CalibrationBin struct {
	Lo, Hi   float64
	Count    int
	FracTrue float64
	MeanProb float64
}

// Calibration buckets query-fact marginals and reports the empirical
// fraction of true facts per bucket — DeepDive's calibrated-probability
// claim ("if one examined all facts with probability 0.9, approximately
// 90% would be correct").
func Calibration(sys *corpus.System, kb *deepdive.KB, bins int) []CalibrationBin {
	out := make([]CalibrationBin, bins)
	sums := make([]float64, bins)
	trues := make([]int, bins)
	for i := range out {
		out[i].Lo = float64(i) / float64(bins)
		out[i].Hi = float64(i+1) / float64(bins)
	}
	eachFact(sys, kb, func(f deepdive.Fact, truth bool) {
		if !f.Known || f.Evidence {
			return
		}
		b := int(f.Probability * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		out[b].Count++
		sums[b] += f.Probability
		if truth {
			trues[b]++
		}
	})
	for i := range out {
		if out[i].Count > 0 {
			out[i].FracTrue = float64(trues[i]) / float64(out[i].Count)
			out[i].MeanProb = sums[i] / float64(out[i].Count)
		}
	}
	return out
}
