package learn

import (
	"context"
	"math"
	"slices"

	"deepdive/internal/factor"
	"deepdive/internal/inc"
)

// The exact half of the gradient. log Pr[E] = log Z_clamped − log Z_released,
// and both partition functions factorise over the connected components of
// the evidence-released graph (factor.Reach in its released adjacency): no
// group crosses from one to another. A component without evidence has equal
// factors in both — its term in the likelihood and in every gradient
// coordinate is exactly zero — so only the components holding evidence are
// walked. Each one the size rule lets enumerate (inc.Enumerable, under the
// chain pair's budget of Burnin + Epochs·BatchSweeps sweeps) is compiled,
// once, into two tables of its worlds' weight statistics, which do not depend
// on the weights: clamped, the worlds of its free members with its evidence
// fixed, and released, the worlds of all its members. A gradient step reads
// the component's expected statistics off each table under the current
// weights — a softmax over w·stat — and its log-likelihood term with them.
// The components past the bound, the remainder, are left to the chain pair.

// plan is the compiled half of the gradient: the tables, identical ones
// merged, and what was left to the chains.
type plan struct {
	tables []table
	// logConst is the part of log Pr[E] no table carries: components (or
	// their clamped halves) whose members are in no group weigh every world
	// alike.
	logConst float64
	// rest is the remainder's variables, ascending. evidence counts the
	// graph's evidence variables, restEvidence those in the remainder.
	rest                   []factor.VarID
	evidence, restEvidence int
	solved                 inc.Solved
	scores                 []float64 // one table's worlds, scratch for expect
}

// table is one compiled component's worlds, as the statistics of the weights
// its groups are tied to: world i's statistic for weight ids[j] is
// stats[i·len(ids)+j]. mult counts the components the table stands for,
// negated for released tables — the sign their log-partition functions take
// in log Pr[E].
type table struct {
	ids   []factor.WeightID
	stats []float64
	mult  float64
}

// compiler is the scratch newPlan builds tables in.
type compiler struct {
	g      *factor.Graph
	assign []bool // the world being evaluated, on the component's members
	groups []int32
	ids    []factor.WeightID
	stats  []float64
	merged map[uint64][]int // table hash → indexes into plan.tables
}

// newPlan walks the evidence-bearing components of g's released adjacency,
// compiles those that enumerate under a budget of sweeps and leaves the rest.
// ctx is checked every few hundred components; a cancelled plan is partial,
// which is harmless: the trainer takes no step once ctx is cancelled.
func newPlan(ctx context.Context, g *factor.Graph, sweeps int) *plan {
	p := &plan{}
	c := compiler{g: g, assign: make([]bool, g.NumVars()), merged: map[uint64][]int{}}
	r := g.NewReach(false)
	comps := 0
	for v := range factor.VarID(g.NumVars()) {
		if !g.IsEvidence(v) {
			continue
		}
		p.evidence++
		at := len(r.Vars)
		r.Grow(v, false)
		comp := r.Vars[at:]
		if len(comp) == 0 {
			continue // v's component was walked from an earlier member
		}
		if comps++; comps&255 == 0 && canceled(ctx) {
			break
		}
		k := len(comp)
		p.solved.Largest = max(p.solved.Largest, k)
		if !inc.Enumerable(k, sweeps) {
			p.rest = append(p.rest, comp...)
			for _, u := range comp {
				if g.IsEvidence(u) {
					p.restEvidence++
				}
			}
			continue
		}
		if k == 1 {
			p.solved.Closed++
		} else {
			p.solved.Enumerated += k
		}
		slices.Sort(comp) // members in one order: isomorphic components merge more often
		c.groups = c.groups[:0]
		for _, u := range comp {
			c.groups = g.AppendAdjacentGroups(c.groups, u)
		}
		slices.Sort(c.groups)
		c.groups = slices.Compact(c.groups)
		c.compile(p, comp, 1)
		c.compile(p, comp, -1)
	}
	p.tables = slices.DeleteFunc(p.tables, func(t table) bool { return t.mult == 0 })
	p.solved.Swept = len(p.rest)
	slices.Sort(p.rest)
	worlds := 0
	for _, t := range p.tables {
		worlds = max(worlds, len(t.stats)/len(t.ids))
	}
	p.scores = make([]float64, worlds)
	return p
}

// compile adds comp's clamped (sign 1) or released (sign −1) table to p.
func (c *compiler) compile(p *plan, comp []factor.VarID, sign float64) {
	g := c.g
	var spanBuf [inc.MaxStrawmanVars]factor.VarID
	span := spanBuf[:0] // the members the table's worlds range over
	for _, v := range comp {
		if sign < 0 || !g.IsEvidence(v) {
			span = append(span, v)
		} else {
			c.assign[v] = g.EvidenceValue(v)
		}
	}
	c.ids = c.ids[:0]
	for _, gi := range c.groups {
		c.ids = append(c.ids, g.GroupWeight(int(gi)))
	}
	slices.Sort(c.ids)
	c.ids = slices.Compact(c.ids)
	m, n := len(c.ids), 1<<len(span)
	if m == 0 {
		p.logConst += sign * float64(len(span)) * math.Ln2
		return
	}
	c.stats = slices.Grow(c.stats[:0], n*m)[:n*m]
	clear(c.stats)
	for world := range n {
		for b, v := range span {
			c.assign[v] = world>>b&1 == 1
		}
		row := c.stats[world*m:][:m]
		for _, gi := range c.groups {
			j, _ := slices.BinarySearch(c.ids, g.GroupWeight(int(gi)))
			row[j] += g.GroupStat(gi, c.assign)
		}
	}
	// Merge: hash the table, compare in full on a hit.
	h := uint64(len(c.stats))
	for _, id := range c.ids {
		h = (h ^ uint64(id)) * 1099511628211
	}
	for _, s := range c.stats {
		h = (h ^ math.Float64bits(s)) * 1099511628211
	}
	for _, i := range c.merged[h] {
		if t := &p.tables[i]; slices.Equal(t.ids, c.ids) && slices.Equal(t.stats, c.stats) {
			t.mult += sign
			return
		}
	}
	c.merged[h] = append(c.merged[h], len(p.tables))
	p.tables = append(p.tables, table{ids: slices.Clone(c.ids), stats: slices.Clone(c.stats), mult: sign})
}

// expect adds the compiled components' gradient of log Pr[E] under the
// weights w — each table's expected statistics times its multiplicity — into
// out (nil: skipped) and returns their log Pr[E].
func (p *plan) expect(w, out []float64) (logLik float64) {
	logLik = p.logConst
	for ti := range p.tables {
		t := &p.tables[ti]
		m := len(t.ids)
		s := p.scores[:len(t.stats)/m]
		top := math.Inf(-1)
		for i := range s {
			var e float64
			for j, k := range t.ids {
				e += w[k] * t.stats[i*m+j]
			}
			s[i] = e
			top = max(top, e)
		}
		var z float64
		for i, e := range s {
			s[i] = math.Exp(e - top)
			z += s[i]
		}
		logLik += t.mult * (top + math.Log(z))
		if out == nil {
			continue
		}
		for i, q := range s {
			q *= t.mult / z
			for j, k := range t.ids {
				out[k] += q * t.stats[i*m+j]
			}
		}
	}
	return logLik
}

// canceled reports whether ctx is non-nil and cancelled.
func canceled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }
