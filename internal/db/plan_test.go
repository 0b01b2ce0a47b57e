package db

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func buildSample() (*Relation, *Relation) {
	person := newRel("PersonCandidate", "s", "m")
	person.Insert(Tuple{"s1", "m1"})
	person.Insert(Tuple{"s1", "m2"})
	person.Insert(Tuple{"s2", "m3"})
	sentence := newRel("Sentence", "s", "text")
	sentence.Insert(Tuple{"s1", "B. Obama and Michelle were married"})
	sentence.Insert(Tuple{"s2", "Malia attended the dinner"})
	// Loading is over: from here the old state equals the live one.
	person.BeginPass()
	sentence.BeginPass()
	return person, sentence
}

// positives returns the plan's evaluation order restricted to positive
// atoms — the only thing the reference evaluator takes from the plan.
func positives(q *Query, p *Plan) []int {
	var out []int
	for _, i := range p.order {
		if !q.Atoms[i].Neg {
			out = append(out, i)
		}
	}
	return out
}

// runBoth evaluates q for one seed with the compiled engine and with the
// reference evaluator, fails the test unless both yield the same bindings
// in the same order, and returns them as rows over q.Vars(). old gives
// the pre-pass tuple list per relation (nil: same as live).
func runBoth(t testing.TB, q *Query, seed int, seedTuple Tuple, old map[*Relation][]Tuple) ([][]Value, error) {
	t.Helper()
	vars := q.Vars()
	p, err := q.Compile(seed)
	if (err != nil) != unplannable(q) {
		t.Fatalf("Compile(%d) = %v, but unplannable(q) = %v", seed, err, unplannable(q))
	}
	if err != nil {
		return nil, err
	}
	var x Exec
	var got [][]Value
	syms := q.Atoms[0].Rel.syms
	p.Run(&x, syms.AppendIDs(nil, seedTuple), func(regs []Sym) bool {
		got = append(got, syms.Tuple(regs))
		return true
	})
	tuples := func(i int) []Tuple {
		rel := q.Atoms[i].Rel
		if o, ok := old[rel]; ok && (seed == ScanOld || (seed >= 0 && i > seed)) {
			return o
		}
		return rel.Tuples()
	}
	var want [][]Value
	err = naiveEval(q, positives(q, p), seed, seedTuple, tuples, func(b binding) bool {
		row := make([]Value, len(vars))
		for i, v := range vars {
			row[i] = b[v]
		}
		want = append(want, row)
		return true
	})
	if err != nil {
		t.Fatalf("reference evaluator failed on a query that compiled: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d %v: compiled %d bindings, reference %d\n got %v\nwant %v", seed, seedTuple, len(got), len(want), got, want)
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("seed %d %v: binding %d differs: compiled %v, reference %v", seed, seedTuple, i, got[i], want[i])
		}
	}
	return got, nil
}

// unplannable reports, from the query text alone, whether a negated atom
// or a constraint mentions a variable no positive atom binds (or uses an
// unknown operator) — exactly the queries Compile must reject.
func unplannable(q *Query) bool {
	bound := map[string]bool{}
	for _, a := range q.Atoms {
		for _, t := range a.Terms {
			if !a.Neg && t.IsVar {
				bound[t.Var] = true
			}
		}
	}
	free := func(t Term) bool { return t.IsVar && !bound[t.Var] }
	for _, a := range q.Atoms {
		if a.Neg && slices.ContainsFunc(a.Terms, free) {
			return true
		}
	}
	for _, c := range q.Cons {
		if free(c.L) || free(c.R) || !slices.Contains([]string{"=", "!=", "<", "<="}, c.Op) {
			return true
		}
	}
	return false
}

// project picks one variable's column out of rows over q.Vars().
func project(q *Query, rows [][]Value, name string) []Value {
	col := slices.Index(q.Vars(), name)
	out := make([]Value, len(rows))
	for i, r := range rows {
		out[i] = r[col]
	}
	return out
}

func TestPlanSelfJoin(t *testing.T) {
	// The paper's R1: MarriedCandidate(m1,m2) :- PersonCandidate(s,m1),
	// PersonCandidate(s,m2) with m1 != m2.
	person, _ := buildSample()
	q := &Query{
		Atoms: []QueryAtom{
			{Rel: person, Terms: []Term{V("s"), V("m1")}},
			{Rel: person, Terms: []Term{V("s"), V("m2")}},
		},
		Cons: []Constraint{{Op: "!=", L: V("m1"), R: V("m2")}},
	}
	rows, err := runBoth(t, q, ScanLive, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // (m1,m2) and (m2,m1) in s1 only
		t.Fatalf("got %d rows, want 2: %v", len(rows), rows)
	}
}

func TestPlanConstantAndCrossRelation(t *testing.T) {
	person, sentence := buildSample()
	q := &Query{Atoms: []QueryAtom{{Rel: person, Terms: []Term{C("s1"), V("m")}}}}
	if rows, err := runBoth(t, q, ScanLive, nil, nil); err != nil || len(rows) != 2 {
		t.Fatalf("constant probe: %v rows, err %v; want 2", rows, err)
	}
	q = &Query{Atoms: []QueryAtom{
		{Rel: person, Terms: []Term{V("s"), V("m")}},
		{Rel: sentence, Terms: []Term{V("s"), V("txt")}},
	}}
	if rows, err := runBoth(t, q, ScanLive, nil, nil); err != nil || len(rows) != 3 {
		t.Fatalf("cross-relation join: %v rows, err %v; want 3", rows, err)
	}
}

func TestPlanSeed(t *testing.T) {
	person, sentence := buildSample()
	q := &Query{Atoms: []QueryAtom{
		{Rel: sentence, Terms: []Term{V("s"), V("txt")}},
		{Rel: person, Terms: []Term{V("s"), V("m")}},
	}}
	rows, err := runBoth(t, q, 0, Tuple{"s2", "whatever"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := project(q, rows, "m"); !slices.Equal(got, []Value{"m3"}) {
		t.Fatalf("seeded join = %v, want [m3]", got)
	}
	// A seed that contradicts the atom's constants or repeated variables
	// yields nothing.
	q = &Query{Atoms: []QueryAtom{{Rel: person, Terms: []Term{C("s1"), V("m")}}}}
	if rows, _ := runBoth(t, q, 0, Tuple{"s2", "m3"}, nil); len(rows) != 0 {
		t.Fatalf("constant-mismatched seed produced %v", rows)
	}
	q = &Query{Atoms: []QueryAtom{{Rel: person, Terms: []Term{V("v"), V("v")}}}}
	if rows, _ := runBoth(t, q, 0, Tuple{"a", "b"}, nil); len(rows) != 0 {
		t.Fatalf("repeated-variable-mismatched seed produced %v", rows)
	}
	// A negated atom cannot be the seed.
	q = &Query{Atoms: []QueryAtom{{Rel: person, Terms: []Term{V("s"), V("m")}}, {Rel: person, Terms: []Term{V("s"), V("m")}, Neg: true}}}
	if _, err := q.Compile(1); err == nil {
		t.Fatal("negated seed atom accepted")
	}
}

func TestPlanNegation(t *testing.T) {
	person, _ := buildSample()
	married := newRel("Married", "m")
	married.Insert(Tuple{"m1"})
	// The negated atom comes first in canonical order: the planner defers
	// it until m is bound.
	q := &Query{Atoms: []QueryAtom{
		{Rel: married, Terms: []Term{V("m")}, Neg: true},
		{Rel: person, Terms: []Term{V("s"), V("m")}},
	}}
	rows, err := runBoth(t, q, ScanLive, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := project(q, rows, "m"); !slices.Equal(got, []Value{"m2", "m3"}) {
		t.Fatalf("anti-join = %v, want [m2 m3]", got)
	}
}

func TestPlanUnplannableRejected(t *testing.T) {
	person, _ := buildSample()
	q := &Query{Atoms: []QueryAtom{{Rel: person, Terms: []Term{V("s"), V("unbound")}, Neg: true}}}
	if _, err := q.Compile(ScanLive); err == nil {
		t.Fatal("negated atom with unbound variable accepted")
	}
	q = &Query{
		Atoms: []QueryAtom{{Rel: person, Terms: []Term{V("s"), V("m")}}},
		Cons:  []Constraint{{Op: "<", L: V("m"), R: V("nowhere")}},
	}
	if _, err := q.Compile(ScanLive); err == nil {
		t.Fatal("constraint with unbound variable accepted")
	}
	q.Cons = []Constraint{{Op: "~", L: V("m"), R: C("3")}}
	if _, err := q.Compile(ScanLive); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestPlanRepeatedVarInAtom(t *testing.T) {
	pair := newRel("Pair", "a", "b")
	pair.Insert(Tuple{"x", "x"})
	pair.Insert(Tuple{"x", "y"})
	q := &Query{Atoms: []QueryAtom{{Rel: pair, Terms: []Term{V("v"), V("v")}}}}
	rows, err := runBoth(t, q, ScanLive, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := project(q, rows, "v"); !slices.Equal(got, []Value{"x"}) {
		t.Fatalf("repeated-var join = %v, want [x]", got)
	}
}

func TestPlanConstraintOps(t *testing.T) {
	nums := newRel("N", "v")
	for _, v := range []string{"2", "10", "3", "apple", "pear"} {
		nums.Insert(Tuple{v})
	}
	count := func(op string, r Value) int {
		q := &Query{
			Atoms: []QueryAtom{{Rel: nums, Terms: []Term{V("v")}}},
			Cons:  []Constraint{{Op: op, L: V("v"), R: C(r)}},
		}
		rows, err := runBoth(t, q, ScanLive, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	// Numeric comparison: "10" > "2" numerically though not lexically;
	// non-numbers compare lexicographically ("10" < "5" < "apple").
	if n := count("<", "5"); n != 2 { // 2 and 3; apple and pear sort above "5"
		t.Fatalf("v < 5 matched %d, want 2", n)
	}
	if n := count("=", "10"); n != 1 {
		t.Fatalf("= count = %d", n)
	}
	if n := count("<=", "3"); n != 2 {
		t.Fatalf("<= count = %d, want 2", n)
	}
	if n := count("<", "banana"); n != 4 { // 2, 10, 3 lexically, apple
		t.Fatalf("lexicographic < count = %d, want 4", n)
	}
	if n := count("!=", "pear"); n != 4 {
		t.Fatalf("!= count = %d, want 4", n)
	}
}

func TestPlanEarlyStopAndRegisterReuse(t *testing.T) {
	r := newRel("R", "x")
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{fmt.Sprint(i)})
	}
	q := &Query{Atoms: []QueryAtom{{Rel: r, Terms: []Term{V("x")}}}}
	p, err := q.Compile(ScanLive)
	if err != nil {
		t.Fatal(err)
	}
	var x Exec
	var seen []Value
	var first []Sym
	p.Run(&x, nil, func(regs []Sym) bool {
		if first == nil {
			first = regs // retained without a copy: overwritten by later bindings
		}
		seen = append(seen, testSyms.Text(regs[0]))
		return len(seen) < 5
	})
	if !slices.Equal(seen, []Value{"0", "1", "2", "3", "4"}) {
		t.Fatalf("early stop saw %v", seen)
	}
	if got := testSyms.Text(first[0]); got != "4" {
		t.Fatalf("register file not reused: first binding still reads %q", got)
	}
}

// TestJoinOrder pins the static join-order rule on the rule shapes the
// KBC programs use.
func TestJoinOrder(t *testing.T) {
	mention := newRel("Mention", "mid", "sid", "etype", "eid")
	sentence := newRel("Sentence", "sid", "words")
	cand := newRel("Rel", "m1", "m2")
	// FE1: Rel(m1,m2) :- Mention(m1,s,t1,e1), Mention(m2,s,t2,e2),
	// Sentence(s,w), m1 != m2, with the head guard last in canonical order.
	q := &Query{
		Atoms: []QueryAtom{
			{Rel: mention, Terms: []Term{V("m1"), V("s"), V("t1"), V("e1")}},
			{Rel: mention, Terms: []Term{V("m2"), V("s"), V("t2"), V("e2")}},
			{Rel: sentence, Terms: []Term{V("s"), V("w")}},
			{Rel: cand, Terms: []Term{V("m1"), V("m2")}, Lead: true},
		},
		Cons: []Constraint{{Op: "!=", L: V("m1"), R: V("m2")}},
	}
	for _, c := range []struct {
		seed int
		want []int
	}{
		{ScanLive, []int{3, 0, 1, 2}}, // guard first, then most bound columns
		{ScanOld, []int{3, 0, 1, 2}},
		{0, []int{0, 1, 3, 2}}, // seed; tie (1 bound each) to body position; guard now fully bound
		{1, []int{1, 0, 3, 2}},
		{2, []int{2, 0, 1, 3}},
		{3, []int{3, 0, 1, 2}},
	} {
		p, err := q.Compile(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.order, c.want) {
			t.Errorf("seed %d: join order %v, want %v", c.seed, p.order, c.want)
		}
	}
	// Constants count as bound columns; a negated atom runs as soon as its
	// variables are bound.
	q = &Query{Atoms: []QueryAtom{
		{Rel: cand, Terms: []Term{V("m1"), V("m2")}, Neg: true},
		{Rel: sentence, Terms: []Term{V("s"), V("w")}},
		{Rel: mention, Terms: []Term{V("m1"), V("s"), C("PERSON"), V("e1")}},
		{Rel: mention, Terms: []Term{V("m2"), V("s"), C("PERSON"), V("e2")}},
	}}
	p, err := q.Compile(ScanLive)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 3, 0, 1}; !slices.Equal(p.order, want) {
		t.Errorf("join order %v, want %v", p.order, want)
	}
}

// randomQuery builds a random conjunctive query over rels: constants,
// repeated variables, negation, all four comparison ops.
func randomQuery(rng *rand.Rand, rels []*Relation, domain []Value) *Query {
	vars := []string{"a", "b", "c", "d"}
	term := func() Term {
		if rng.Intn(5) == 0 {
			return C(domain[rng.Intn(len(domain))])
		}
		return V(vars[rng.Intn(len(vars))])
	}
	q := &Query{}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		rel := rels[rng.Intn(len(rels))]
		a := QueryAtom{Rel: rel, Neg: rng.Intn(5) == 0, Lead: rng.Intn(6) == 0}
		for range rel.Cols() {
			a.Terms = append(a.Terms, term())
		}
		q.Atoms = append(q.Atoms, a)
	}
	ops := []string{"=", "!=", "<", "<="}
	for n := rng.Intn(3); n > 0; n-- {
		q.Cons = append(q.Cons, Constraint{Op: ops[rng.Intn(len(ops))], L: term(), R: term()})
	}
	return q
}

// TestCompiledMatchesReference is the engine's differential property
// test: random queries over random relations that have a pass in flight
// (so the old-state view differs from the live one), at every seed
// position — same bindings as the reference evaluator, in the same order.
func TestCompiledMatchesReference(t *testing.T) {
	domain := []Value{"1", "2", "3", "10", "x", "y"}
	compiled, rejected := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rels := []*Relation{newRel("P", "x"), newRel("Q", "x", "y"), newRel("R", "x", "y", "z")}
		randTuple := func(rel *Relation) Tuple {
			tu := make(Tuple, rel.Arity())
			for i := range tu {
				tu[i] = domain[rng.Intn(len(domain))]
			}
			return tu
		}
		mutate := func(n int) {
			for ; n > 0; n-- {
				rel := rels[rng.Intn(len(rels))]
				tu := randTuple(rel)
				if rel.Contains(tu) && rng.Intn(2) == 0 {
					rel.Delete(tu)
				} else {
					rel.Insert(tu)
				}
			}
		}
		mutate(25)
		q := randomQuery(rng, rels, domain)
		// Some plans (and their indexes) exist before the pass, some only
		// after it mutated the relations.
		if rng.Intn(2) == 0 {
			q.Compile(ScanLive)
		}
		old := map[*Relation][]Tuple{}
		for _, rel := range rels {
			rel.BeginPass()
			old[rel] = rel.Tuples()
		}
		mutate(15)
		for s := ScanOld; s < len(q.Atoms); s++ {
			if s >= 0 && q.Atoms[s].Neg {
				continue
			}
			seeds := []Tuple{nil}
			if s >= 0 {
				rel := q.Atoms[s].Rel
				seeds = append(rel.Tuples(), randTuple(rel), randTuple(rel))
			}
			for _, st := range seeds {
				if _, err := runBoth(t, q, s, st, old); err != nil {
					rejected++
				} else {
					compiled++
				}
			}
		}
	}
	if compiled < 1000 || rejected == 0 {
		t.Fatalf("generator is lopsided: %d evaluations compared, %d queries rejected", compiled, rejected)
	}
}

// TestWarmRunDoesNotAllocate: with its Exec warm, running a plan — key
// building, index probes, register loads, anti-join and comparison steps —
// allocates nothing.
func TestWarmRunDoesNotAllocate(t *testing.T) {
	person, sentence := buildSample()
	married := newRel("Married", "m")
	married.Insert(Tuple{"m1"})
	q := &Query{
		Atoms: []QueryAtom{
			{Rel: sentence, Terms: []Term{V("s"), V("txt")}},
			{Rel: person, Terms: []Term{V("s"), V("m1")}},
			{Rel: person, Terms: []Term{V("s"), V("m2")}},
			{Rel: married, Terms: []Term{V("m2")}, Neg: true},
		},
		Cons: []Constraint{{Op: "!=", L: V("m1"), R: V("m2")}},
	}
	p, err := q.Compile(ScanLive)
	if err != nil {
		t.Fatal(err)
	}
	var x Exec
	n := 0
	emit := func([]Sym) bool { n++; return true }
	p.Run(&x, nil, emit)
	if n != 1 { // (m1, m2): m2 is unmarried, (m2, m1) is killed by the anti-join
		t.Fatalf("plan emitted %d bindings, want 1", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Run(&x, nil, emit) }); allocs != 0 {
		t.Fatalf("warm plan run allocates %.1f times, want 0", allocs)
	}
	ix := person.IndexOn(0)
	key := testSyms.AppendIDs(nil, Tuple{"s1"})
	if allocs := testing.AllocsPerRun(100, func() {
		for pos := ix.first(key); pos >= 0; pos = ix.next[pos] {
			if person.counts[pos] > 0 {
				n++
			}
		}
	}); allocs != 0 {
		t.Fatalf("warm index probe allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentRuns: running a plan only reads it and the indexes
// behind it, so runs with their own Execs between mutations do not race.
// Run under -race.
func TestConcurrentRuns(t *testing.T) {
	r := newRel("E", "a", "b")
	for i := 0; i < 200; i++ {
		r.Insert(Tuple{fmt.Sprint(i % 20), fmt.Sprint(i % 7)})
	}
	r.BeginPass()
	for i := 0; i < 200; i += 3 {
		r.Delete(Tuple{fmt.Sprint(i % 20), fmt.Sprint(i % 7)})
	}
	q := &Query{Atoms: []QueryAtom{
		{Rel: r, Terms: []Term{V("x"), V("y")}},
		{Rel: r, Terms: []Term{V("z"), V("y")}},
	}}
	p, err := q.Compile(0) // atom 1 reads the old state through the index on b
	if err != nil {
		t.Fatal(err)
	}
	count := func(x *Exec, seed Tuple) int {
		n := 0
		ids, _ := testSyms.FindIDs(nil, seed)
		p.Run(x, ids, func([]Sym) bool { n++; return true })
		return n
	}
	seeds := r.Tuples()
	want := make([]int, len(seeds))
	for i, s := range seeds {
		want[i] = count(new(Exec), s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x Exec
			for i, s := range seeds {
				if got := count(&x, s); got != want[i] {
					t.Errorf("seed %v: %d bindings concurrently, %d alone", s, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
