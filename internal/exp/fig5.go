package exp

import (
	"strconv"
	"time"

	"deepdive/internal/factor"
	"deepdive/internal/gibbs"
	"deepdive/internal/inc"
)

// Fig5aSizes mirrors the paper's graph-size axis.
var Fig5aSizes = []int{2, 10, 17, 100, 1000, 10000}

// Fig5a reproduces Figure 5(a): materialization and inference time of
// the three strategies as the factor graph grows. Strawman runs only
// where feasible (≤ 17 vars here, ≤ ~20 in the paper). var-swept is how
// many variables the variational run left to its Gibbs chain: the others
// sat in components of the approximated graph small enough to solve
// exactly (inc.VariationalInferCtx).
func Fig5a(sizes []int, seed int64) *Report {
	r := &Report{Title: "Figure 5(a): strategy cost vs. graph size"}
	r.addf("%8s  %12s %12s %12s   %12s %12s %12s %10s",
		"n", "mat-straw", "mat-sample", "mat-var", "inf-straw", "inf-sample", "inf-var", "var-swept")
	const matSamples, keep = 400, 300
	for _, n := range sizes {
		g := pairwiseGraph(n, 2.0, 1.0, seed)
		newG, changed := perturbWeights(g, max(1, n/10), 0.3)
		cs := inc.ChangeSet{ChangedOld: changed, ChangedNew: changed}

		var matS, infS string = "     —", "     —"
		if n <= inc.MaxStrawmanVars {
			start := time.Now()
			sm, err := inc.MaterializeStrawman(g)
			if err == nil {
				matS = ms(time.Since(start))
				start = time.Now()
				sm.Infer(newG, changed, changed, 20, keep, seed+1)
				infS = ms(time.Since(start))
			}
		}

		start := time.Now()
		sampler := gibbs.New(g, seed+2)
		store := sampler.CollectSamples(20, matSamples)
		matSa := time.Since(start)

		start = time.Now()
		vm, err := inc.MaterializeVariational(g, store, inc.VariationalOptions{Lambda: 0.01})
		if err != nil {
			r.addf("n=%d: variational materialization failed: %v", n, err)
			continue
		}
		matV := time.Since(start)

		store.Reset()
		start = time.Now()
		inc.SamplingInferCtx(nil, g, newG, store, cs, nil, nil, keep, seed+3)
		infSa := time.Since(start)

		start = time.Now()
		_, solved := inc.VariationalInferCtx(nil, vm, g, newG, changed, nil, 20, keep, seed+4)
		infV := time.Since(start)

		r.addf("%8d  %12s %12s %12s   %12s %12s %12s %10d",
			n, matS, ms(matSa), ms(matV), infS, ms(infSa), ms(infV), solved.Swept)
	}
	r.addf("(strawman infeasible beyond %d free variables, as in the paper; the variational run applies it", inc.MaxStrawmanVars)
	r.addf(" per component of its approximated graph and sweeps only the var-swept variables of the rest)")
	return r
}

// Fig5bDeltas are weight perturbations sweeping the acceptance rate from
// ≈1 down to ≈0 (the paper's amount-of-change axis).
var Fig5bDeltas = []float64{0, 0.05, 0.3, 1.0, 3.0}

// Fig5b reproduces Figure 5(b): sampling vs. variational execution time
// as the amount of change (measured by the achieved acceptance rate)
// varies on a 1000-variable graph.
func Fig5b(n int, deltas []float64, seed int64) *Report {
	r := &Report{Title: "Figure 5(b): execution time vs. acceptance rate (amount of change)"}
	r.addf("%8s  %12s  %12s %12s", "delta", "acceptance", "inf-sample", "inf-var")
	const matSamples, keep = 1200, 800
	g := pairwiseGraph(n, 2.0, 1.0, seed)
	sampler := gibbs.New(g, seed+2)
	store := sampler.CollectSamples(20, matSamples)
	vm, err := inc.MaterializeVariational(g, store, inc.VariationalOptions{Lambda: 0.01})
	if err != nil {
		r.addf("variational materialization failed: %v", err)
		return r
	}
	for _, d := range deltas {
		newG, changed := perturbWeights(g, n, d)
		cs := inc.ChangeSet{ChangedOld: changed, ChangedNew: changed}

		store.Reset()
		start := time.Now()
		sr := inc.SamplingInferCtx(nil, g, newG, store, cs, nil, nil, keep, seed+3)
		infSa := time.Since(start)

		start = time.Now()
		inc.VariationalInfer(vm, g, newG, changed, 20, keep, seed+4)
		infV := time.Since(start)

		r.addf("%8.2f  %12.3f  %12s %12s", d, sr.AcceptanceRate, ms(infSa), ms(infV))
	}
	r.addf("(high acceptance favors sampling; large changes favor the variational side)")
	return r
}

// Fig5cSparsities mirrors the paper's correlation-sparsity axis.
var Fig5cSparsities = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 1.0}

// Fig5c reproduces Figure 5(c): execution time vs. the fraction of
// non-zero correlations. Sparser originals give the variational approach
// smaller approximate graphs and faster inference — and, past the point
// where the approximated graph falls apart into components of a dozen
// variables, no chain at all: var-swept drops as they become enumerable.
func Fig5c(n int, sparsities []float64, seed int64) *Report {
	r := &Report{Title: "Figure 5(c): execution time vs. sparsity of correlations"}
	r.addf("%8s  %10s  %12s %12s %10s", "sparsity", "var-edges", "inf-sample", "inf-var", "var-swept")
	const matSamples, keep = 800, 600
	for _, s := range sparsities {
		g := pairwiseGraph(n, 2.0, s, seed)
		sampler := gibbs.New(g, seed+2)
		store := sampler.CollectSamples(20, matSamples)
		vm, err := inc.MaterializeVariational(g, store, inc.VariationalOptions{Lambda: 0.02})
		if err != nil {
			r.addf("sparsity %.1f: %v", s, err)
			continue
		}
		// A moderate change so the sampling side has to work.
		newG, changed := perturbWeights(g, n/2, 0.5)
		cs := inc.ChangeSet{ChangedOld: changed, ChangedNew: changed}

		store.Reset()
		start := time.Now()
		inc.SamplingInferCtx(nil, g, newG, store, cs, nil, nil, keep, seed+3)
		infSa := time.Since(start)

		start = time.Now()
		_, solved := inc.VariationalInferCtx(nil, vm, g, newG, changed, nil, 20, keep, seed+4)
		infV := time.Since(start)

		r.addf("%8.1f  %10d  %12s %12s %10d", s, len(vm.Edges), ms(infSa), ms(infV), solved.Swept)
	}
	r.addf("(var-swept: variables of the %d left to the variational run's Gibbs chain; the rest sit in components", n)
	r.addf(" of the approximated graph — fewer edges, smaller components — that are enumerated exactly)")
	return r
}

// Fig13Sizes is the |U|+|D| axis of the convergence experiment.
var Fig13Sizes = []int{4, 16, 64, 256, 1024}

// Fig13 reproduces Figure 13 (Appendix A): Gibbs sweeps until the voting
// program's query marginal is within 1% of the exact value, for the three
// semantics. Linear blows up as votes grow; Logical and Ratio stay near
// O(n log n).
func Fig13(sizes []int, seed int64) *Report {
	r := &Report{Title: "Figure 13: voting-program convergence vs. |U|+|D|"}
	r.addf("%8s  %10s %10s %10s   (sweeps to reach ±1%% of exact marginal)",
		"|U|+|D|", "linear", "logical", "ratio")
	const maxSweeps = 30000
	for _, total := range sizes {
		row := make(map[factor.Semantics]string)
		for _, sem := range []factor.Semantics{factor.Linear, factor.Logical, factor.Ratio} {
			g, q := votingGraph(sem, total/2, total/2)
			// |U| = |D| and symmetric weights: exact marginal is 1/2.
			res := gibbs.SweepsToConverge(g, q, 0.5, 0.01, maxSweeps, 25, seed)
			if res.Converged {
				row[sem] = fmt6(res.Sweeps)
			} else {
				row[sem] = ">" + fmt6(maxSweeps)
			}
		}
		r.addf("%8d  %10s %10s %10s", total,
			row[factor.Linear], row[factor.Logical], row[factor.Ratio])
	}
	return r
}

func fmt6(n int) string { return strconv.Itoa(n) }

// votingGraph builds Example 2.5's voting program with free up/down vote
// variables, so the chain has to mix over the votes too (the Appendix A
// experimental setting: "all variables to be non-evidence variables").
func votingGraph(sem factor.Semantics, nUp, nDown int) (*factor.Graph, factor.VarID) {
	b := factor.NewBuilder()
	q := b.AddVar()
	wUp := b.AddWeight(1)
	wDown := b.AddWeight(-1)
	var upG, downG []factor.Grounding
	for i := 0; i < nUp; i++ {
		v := b.AddVar()
		upG = append(upG, factor.Grounding{Lits: []factor.Literal{{Var: v}}})
	}
	for i := 0; i < nDown; i++ {
		v := b.AddVar()
		downG = append(downG, factor.Grounding{Lits: []factor.Literal{{Var: v}}})
	}
	b.AddGroup(q, wUp, sem, upG)
	b.AddGroup(q, wDown, sem, downG)
	return b.MustBuild(), q
}
