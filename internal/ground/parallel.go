package ground

// Sharded delta grounding: the parallel analogue of the sequential DRed
// loop in incremental.go. The decomposition exploits the structure the
// sequential path already relies on:
//
//   - Evaluation is read-only. A DRed delta term (one rule, one delta
//     seed, one sign) or a full-rule evaluation only *reads* relations
//     and tracker delta lists; every mutation (relation inserts, variable
//     and weight interning, grounding counts) happens in applyBinding.
//   - Within one topological level — the rules deriving a single head
//     relation, or the whole weighted-rule phase — no rule's applies can
//     affect another rule's evaluation: a level's applies only mutate the
//     head relation (which no same-level body may reference, by the
//     no-recursion invariant) and factor state (which no join reads).
//
// So each level becomes: generate the evaluation jobs in sequential
// order, evaluate them concurrently across workers (each job privately
// accumulating its ordered bindings), then apply every job's bindings
// serially in job order. The applied binding stream is exactly the one
// the sequential path produces, which makes the parallel path
// bit-identical — the property the differential test in parallel_test.go
// pins down.
//
// Concurrent evaluation is safe because a plan run only reads: the db
// indexes are maintained by the mutations themselves (none runs during a
// fan-out), warm probes take no lock, and every plan a job needs is
// compiled — and its indexes built, its constants interned — on the driver
// while the jobs are generated. Workers read the symbol table (UDF
// arguments, weight keys) and nothing interns into it during a fan-out:
// base tuples intern before the pipeline runs, and derived heads are rows
// of ids already interned.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"deepdive/internal/db"
)

// evalJob is one read-only join evaluation: a rule's plan for one DRed
// term (or a full evaluation), the delta tuple bound at the plan's seed
// position, and the sign its bindings are applied with. Both paths
// generate the same jobs in the same order; the sequential one evaluates
// and applies each in turn (evalApply), the parallel one has workers fill
// out and the driver apply it serially.
type evalJob struct {
	re   *ruleEval
	plan *db.Plan // nil for an empty-body rule: one binding, no variables
	seed []db.Sym // nil for a full evaluation
	sign int      // +1 derive, -1 retract

	out  []bindingPre // precomputed bindings in emission order
	keys keyArena     // their keys
}

// parallelism resolves the configured worker count.
func (g *Grounder) parallelism() int {
	if g.par < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return g.par
}

// evalApply evaluates one job on the driver goroutine and applies each
// binding as it is emitted.
func (g *Grounder) evalApply(j *evalJob, tr *tracker) error {
	if j.plan == nil {
		return g.applyBinding(j.re, nil, j.sign, tr)
	}
	var err error
	j.plan.Run(&g.exec, j.seed, func(regs []db.Sym) bool {
		err = g.applyBinding(j.re, regs, j.sign, tr)
		return err == nil
	})
	return err
}

// collect evaluates one job, collecting precomputed bindings in emission
// order. Precomputing in the worker moves every pure per-binding
// derivation — the head and literal keys, the UDF weight key, the binding
// key — off the serial apply path; the plan's reused register file need
// not be copied because precompute retains nothing of it.
func (j *evalJob) collect(x *db.Exec) {
	if j.plan == nil {
		j.out = []bindingPre{j.re.precompute(nil, &j.keys)}
		return
	}
	j.plan.Run(x, j.seed, func(regs []db.Sym) bool {
		j.out = append(j.out, j.re.precompute(regs, &j.keys))
		return true
	})
}

// runJobs evaluates jobs across the configured workers (work-stealing by
// atomic counter; job order does not matter here, only the apply order).
func (g *Grounder) runJobs(jobs []evalJob) {
	n := min(g.parallelism(), len(jobs))
	if n <= 1 {
		for i := range jobs {
			jobs[i].collect(&g.exec)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			var x db.Exec
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				jobs[i].collect(&x)
			}
		}()
	}
	wg.Wait()
}

// ruleJobs appends one rule's share of an update to jobs: a full
// evaluation for a rule the update introduced — every rule, on the first
// update, which grounds from the empty database — and the DRed delta terms
// for an existing one.
func (g *Grounder) ruleJobs(jobs []evalJob, re *ruleEval, tr *tracker, isNew bool) []evalJob {
	if isNew || g.version == 0 {
		return append(jobs, re.fullJob())
	}
	return g.deltaJobs(jobs, re, tr)
}

// fullJob is a full-rule evaluation over the live state.
func (re *ruleEval) fullJob() evalJob {
	if len(re.rule.Body) == 0 {
		return evalJob{re: re, sign: +1}
	}
	return evalJob{re: re, plan: re.mustPlan(db.ScanLive), sign: +1}
}

// deltaJobs decomposes an existing rule's DRed delta evaluation
//
//	Δ(A₁ ⋈ … ⋈ Aₙ) = Σᵢ A₁ⁿᵉʷ ⋈ … ⋈ Aᵢ₋₁ⁿᵉʷ ⋈ ΔAᵢ ⋈ Aᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Aₙᵒˡᵈ
//
// into one job per (changed positive atom i, delta tuple, sign). The sum
// telescopes over the rule's canonical item order (ruleEval.query); the
// plan seeded at i reads the live state before i and the old state after
// it, in whatever join order the planner chose. Rules with a negated atom
// over a changed relation fall back to retracting every old derivation
// (a full evaluation over the old state) and re-deriving against the new
// one — counts make the pair exact. Rules whose body touches no changed
// relation yield no jobs: this skip is where the incremental-grounding
// speedup comes from.
//
// The jobs — appended to jobs — hold the delta tuples as of this call, so
// a rule never consumes deltas its own bindings produce.
func (g *Grounder) deltaJobs(jobs []evalJob, re *ruleEval, tr *tracker) []evalJob {
	touches, negOnChanged := false, false
	for i, a := range re.query.Atoms {
		if tr.changed(re.atomSeq[i]) {
			touches = true
			negOnChanged = negOnChanged || a.Neg
		}
	}
	if !touches { // includes facts, which never re-fire
		return jobs
	}
	if negOnChanged {
		return append(jobs, evalJob{re: re, plan: re.mustPlan(db.ScanOld), sign: -1}, re.fullJob())
	}
	for i, a := range re.query.Atoms {
		seq := re.atomSeq[i]
		if a.Neg || !tr.changed(seq) {
			continue
		}
		plan, arity := re.mustPlan(i), a.Rel.Arity()
		for k := range tr.added[seq].n {
			jobs = append(jobs, evalJob{re: re, plan: plan, seed: tr.added[seq].row(k, arity), sign: +1})
		}
		for k := range tr.removed[seq].n {
			jobs = append(jobs, evalJob{re: re, plan: plan, seed: tr.removed[seq].row(k, arity), sign: -1})
		}
	}
	return jobs
}

// runRuleLevel runs one level of the update pipeline on the parallel
// path: jobs generated in sequential order, evaluated concurrently,
// bindings applied serially in job order (the canonical sequential
// order).
func (g *Grounder) runRuleLevel(rules []*ruleEval, tr *tracker, newRules map[*ruleEval]bool) error {
	jobs := g.jobs[:0]
	for _, re := range rules {
		jobs = g.ruleJobs(jobs, re, tr, newRules[re])
	}
	// The scratch list keeps its capacity for the next level, not the
	// bindings the workers collect into it.
	defer func() { clear(jobs); g.jobs = jobs[:0] }()
	g.runJobs(jobs)
	for i := range jobs {
		j := &jobs[i]
		for k := range j.out {
			if err := g.applyPre(j.re, &j.out[k], &j.keys, j.sign, tr); err != nil {
				return err
			}
		}
	}
	return nil
}
