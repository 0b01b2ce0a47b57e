// Package exp implements the paper's experiments: one regeneration
// function per table/figure of the evaluation (Sections 3.2.4 and 4,
// Appendices A/B). Each function returns formatted report lines; the
// deepdive-exp command prints them and the repository benchmarks wrap
// them. Everything is deterministic in the configured seeds. The
// experiment index is cmd/deepdive-exp's usage text.
package exp

import (
	"fmt"
	"math/rand"
	"time"

	"deepdive/internal/corpus"
	"deepdive/internal/factor"
)

// Report is a titled block of result lines.
type Report struct {
	Title string
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	out := r.Title + "\n"
	for _, l := range r.Lines {
		out += "  " + l + "\n"
	}
	return out
}

// Scale picks experiment sizes. Quick keeps the full suite within a few
// minutes; Full uses the complete corpora.
type Scale int

const (
	// Quick shrinks corpora for fast runs (benchmarks, CI).
	Quick Scale = iota
	// Full uses the Figure 7 scaled corpora as generated.
	Full
)

// systems returns the evaluation systems at the requested scale.
func systems(sc Scale) []*corpus.System {
	if sc == Full {
		return corpus.AllSystems()
	}
	shrink := func(spec corpus.Spec, docs, pairs int) corpus.Spec {
		spec.NumDocs = docs
		if spec.TruePairsPerRel > pairs {
			spec.TruePairsPerRel = pairs
		}
		if spec.FalsePairsPerRel > 3*pairs {
			spec.FalsePairsPerRel = 3 * pairs
		}
		return spec
	}
	return []*corpus.System{
		corpus.Generate(shrink(corpus.Adversarial(), 220, 40)),
		corpus.Generate(shrink(corpus.News(), 80, 6)),
		corpus.Generate(shrink(corpus.Genomics(), 25, 9)),
		corpus.Generate(shrink(corpus.Pharma(), 40, 7)),
		corpus.Generate(shrink(corpus.Paleontology(), 30, 8)),
	}
}

// ms renders a duration in milliseconds with sub-ms precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%8.2fms", float64(d.Microseconds())/1000)
}

// speedup renders a ratio, guarding division by ~zero.
func speedup(base, inc time.Duration) string {
	if inc <= 0 {
		inc = time.Microsecond
	}
	return fmt.Sprintf("%6.1fx", float64(base)/float64(inc))
}

// pairwiseGraph builds the synthetic factor graphs of the Figure 5
// tradeoff study: n variables, pairwise factors between random variable
// pairs with weights sampled from [-0.5, 0.5] (the paper's setting), and
// a (1 - sparsity) fraction of weights zeroed.
func pairwiseGraph(n int, factorsPerVar float64, sparsity float64, seed int64) *factor.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := factor.NewBuilder()
	vars := make([]factor.VarID, n)
	for i := range vars {
		vars[i] = b.AddVar()
	}
	nFactors := int(float64(n) * factorsPerVar)
	if n >= 2 {
		for i := 0; i < nFactors; i++ {
			a := rng.Intn(n)
			c := rng.Intn(n)
			for c == a {
				c = rng.Intn(n)
			}
			w := rng.Float64() - 0.5
			if rng.Float64() >= sparsity {
				w = 0 // zeroed weight: present but inert (the sparsity axis)
			}
			wid := b.AddWeight(w)
			b.AddGroup(vars[a], wid, factor.Linear,
				[]factor.Grounding{{Lits: []factor.Literal{{Var: vars[c]}}}})
		}
	}
	return b.MustBuild()
}

// perturbWeights returns a copy-shaped change: the first k group weights
// shifted by delta on the new graph, with the matching changed-group
// lists. The graphs share variable ids.
func perturbWeights(g *factor.Graph, k int, delta float64) (*factor.Graph, []int32) {
	newG := factor.NewBuilderFrom(g).MustBuild()
	if k > newG.NumGroups() {
		k = newG.NumGroups()
	}
	changed := make([]int32, 0, k)
	seen := map[factor.WeightID]bool{}
	for gi := 0; gi < k; gi++ {
		w := newG.GroupWeight(gi)
		if !seen[w] {
			seen[w] = true
			newG.SetWeight(w, newG.Weight(w)+delta)
		}
		changed = append(changed, int32(gi))
	}
	return newG, changed
}
