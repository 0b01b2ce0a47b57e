package db

import (
	"fmt"
	"strconv"
)

// The reference evaluator: the interpreted nested-loop join the compiled
// plans replaced, kept as the differential oracle. It shares nothing with
// plan.go — bindings are name→value maps, every atom is matched by a
// linear walk over a tuple list the caller supplies (so it never touches
// an index, a Row or the old-state view), and negated atoms and
// constraints are all checked at the leaf, once everything is bound.

type binding map[string]Value

// naiveEval enumerates the bindings of q. positives lists the positive
// atoms in the order to nest them (the seed atom first when seed >= 0,
// bound to seedTuple instead of walked); tuples(i) is the visible tuple
// list atom i reads, in relation order. It errors where a negated atom or
// a constraint mentions a variable no positive atom binds.
func naiveEval(q *Query, positives []int, seed int, seedTuple Tuple, tuples func(atom int) []Tuple, emit func(binding) bool) error {
	b := binding{}
	var rec func(k int) (bool, error)
	rec = func(k int) (bool, error) {
		if k == len(positives) {
			for i, a := range q.Atoms {
				if !a.Neg {
					continue
				}
				for _, t := range a.Terms {
					if _, ok := b[t.Var]; t.IsVar && !ok {
						return false, fmt.Errorf("negated atom over %s has unbound variable %q", a.Rel.Name(), t.Var)
					}
				}
				for _, tup := range tuples(i) {
					if _, ok := naiveMatch(a.Terms, tup, b); ok {
						return true, nil // a match kills the binding
					}
				}
			}
			for _, c := range q.Cons {
				l, lok := naiveValue(c.L, b)
				r, rok := naiveValue(c.R, b)
				if !lok || !rok {
					return false, fmt.Errorf("constraint %v %s %v has unbound variable", c.L, c.Op, c.R)
				}
				ok, err := naiveCompare(c.Op, l, r)
				if err != nil {
					return false, err
				}
				if !ok {
					return true, nil
				}
			}
			return emit(b), nil
		}
		i := positives[k]
		cands := tuples(i)
		if i == seed {
			cands = []Tuple{seedTuple}
		}
		for _, tup := range cands {
			newVars, ok := naiveMatch(q.Atoms[i].Terms, tup, b)
			if !ok {
				continue
			}
			for _, v := range newVars {
				b[v] = tup[varCol(q.Atoms[i].Terms, v)]
			}
			keep, err := rec(k + 1)
			for _, v := range newVars {
				delete(b, v)
			}
			if err != nil || !keep {
				return keep, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}

func varCol(terms []Term, v string) int {
	for i, t := range terms {
		if t.IsVar && t.Var == v {
			return i
		}
	}
	panic("unreachable")
}

// naiveMatch reports whether tup matches the term pattern under b, and
// which variables it would newly bind.
func naiveMatch(terms []Term, tup Tuple, b binding) (newVars []string, ok bool) {
	local := map[string]Value{}
	for pos, t := range terms {
		want, bound := naiveValue(t, b)
		if !bound {
			want, bound = local[t.Var]
		}
		if bound {
			if tup[pos] != want {
				return nil, false
			}
			continue
		}
		local[t.Var] = tup[pos]
		newVars = append(newVars, t.Var)
	}
	return newVars, true
}

func naiveValue(t Term, b binding) (Value, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	v, ok := b[t.Var]
	return v, ok
}

func naiveCompare(op string, l, r Value) (bool, error) {
	li, lerr := strconv.Atoi(l)
	ri, rerr := strconv.Atoi(r)
	numeric := lerr == nil && rerr == nil
	switch op {
	case "=":
		return l == r, nil
	case "!=":
		return l != r, nil
	case "<":
		if numeric {
			return li < ri, nil
		}
		return l < r, nil
	case "<=":
		if numeric {
			return li <= ri, nil
		}
		return l <= r, nil
	}
	return false, fmt.Errorf("unsupported constraint op %q", op)
}
