package datalog

import (
	"fmt"
	"strconv"
	"strings"

	"deepdive/internal/factor"
)

// RelDecl declares a relation in the user schema. Variable relations
// (declared @variable) hold tuples that become Boolean random variables
// in the factor graph; plain relations (@relation) are deterministic
// (EDB or derived) data.
type RelDecl struct {
	Name     string
	Cols     []string
	Variable bool
}

// Arity returns the number of columns.
func (d *RelDecl) Arity() int { return len(d.Cols) }

// Term is a rule argument: a variable or a constant.
type Term struct {
	IsVar bool
	Name  string // variable name when IsVar
	Value string // constant value otherwise
}

// String renders the term in source syntax.
func (t Term) String() string { return string(t.appendTo(nil)) }

func (t Term) appendTo(b []byte) []byte {
	if t.IsVar {
		return append(b, t.Name...)
	}
	return strconv.AppendQuote(b, t.Value)
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// String renders the atom in source syntax.
func (a Atom) String() string { return string(a.appendTo(nil)) }

func (a Atom) appendTo(b []byte) []byte {
	b = append(append(b, a.Pred...), '(')
	for i, t := range a.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = t.appendTo(b)
	}
	return append(b, ')')
}

// Cond is a comparison body item.
type Cond struct {
	Op   string // "=", "!=", "<", "<="
	L, R Term
}

// String renders the condition.
func (c Cond) String() string { return string(c.appendTo(nil)) }

func (c Cond) appendTo(b []byte) []byte {
	b = append(c.L.appendTo(b), ' ')
	b = append(append(b, c.Op...), ' ')
	return c.R.appendTo(b)
}

// BodyItem is one conjunct of a rule body: an atom (possibly negated) or
// a comparison.
type BodyItem struct {
	Atom *Atom
	Neg  bool
	Cond *Cond
}

// String renders the body item.
func (b BodyItem) String() string { return string(b.appendTo(nil)) }

func (b BodyItem) appendTo(dst []byte) []byte {
	if b.Cond != nil {
		return b.Cond.appendTo(dst)
	}
	if b.Neg {
		dst = append(dst, '!')
	}
	return b.Atom.appendTo(dst)
}

// WeightExpr describes a rule's weight clause.
//
//   - Fixed: `weight = 1.5` — a constant, not learned.
//   - Tied:  `weight = w(f, g)` — one learned weight per distinct binding
//     of the listed variables (the paper's weight tying).
//   - UDF:   `weight = phrase(m1, m2, sent)` — the named user-defined
//     function maps the bound arguments to a tie key; one learned weight
//     per distinct key (rule FE1 of the paper).
//
// The zero WeightExpr (no weight clause) marks a deterministic rule.
type WeightExpr struct {
	HasWeight bool
	Fixed     float64 // used when Func == ""
	IsFixed   bool
	Func      string   // "w" for pure tying, else UDF name
	Args      []string // variable names passed to Func
}

// String renders the weight clause ("" when absent).
func (w WeightExpr) String() string { return string(w.appendTo(nil)) }

func (w WeightExpr) appendTo(b []byte) []byte {
	if !w.HasWeight {
		return b
	}
	b = append(b, "weight = "...)
	if w.IsFixed {
		return strconv.AppendFloat(b, w.Fixed, 'g', -1, 64)
	}
	b = append(append(b, w.Func...), '(')
	for i, a := range w.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, a...)
	}
	return append(b, ')')
}

// RuleKind classifies rules by their role in the KBC pipeline
// (Section 2.2 / Figure 8 of the paper).
type RuleKind uint8

const (
	// KindDerivation is a deterministic rule (candidate mapping or plain
	// view): no weight, head not an evidence relation.
	KindDerivation RuleKind = iota
	// KindSupervision derives into an evidence relation R_Ev
	// (distant supervision, rule S1 of the paper).
	KindSupervision
	// KindInference carries a weight and grounds factors (feature
	// extraction rules FE1/FE2 and inference rules I1).
	KindInference
)

// String implements fmt.Stringer.
func (k RuleKind) String() string {
	switch k {
	case KindDerivation:
		return "derivation"
	case KindSupervision:
		return "supervision"
	case KindInference:
		return "inference"
	default:
		return fmt.Sprintf("RuleKind(%d)", uint8(k))
	}
}

// Rule is one parsed rule.
type Rule struct {
	Label  string // optional, e.g. "FE1"
	Head   Atom
	Body   []BodyItem
	Weight WeightExpr
	Sem    factor.Semantics
	SemSet bool // whether the rule overrides the program default
	Kind   RuleKind
}

// String renders the rule in source syntax.
func (r *Rule) String() string { return string(r.appendTo(nil)) }

func (r *Rule) appendTo(b []byte) []byte {
	if r.Label != "" {
		b = append(append(b, r.Label...), ": "...)
	}
	b = r.Head.appendTo(b)
	for i, item := range r.Body {
		if i == 0 {
			b = append(b, " :- "...)
		} else {
			b = append(b, ", "...)
		}
		b = item.appendTo(b)
	}
	if r.Weight.HasWeight {
		b = r.Weight.appendTo(append(b, ' '))
	}
	if r.SemSet {
		b = append(append(b, " sem = "...), r.Sem.String()...)
	}
	return append(b, '.')
}

// Program is a parsed and validated DeepDive program.
type Program struct {
	Decls      map[string]*RelDecl
	DeclOrder  []string
	Rules      []*Rule
	DefaultSem factor.Semantics
}

// RuleByLabel returns the first rule with the given label, or nil.
func (p *Program) RuleByLabel(label string) *Rule {
	for _, r := range p.Rules {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// EvidenceSuffix is the naming convention linking a variable relation R to
// its evidence relation R_Ev (Section 2.2: "each user relation is
// associated with an evidence relation with the same schema and an
// additional field").
const EvidenceSuffix = "_Ev"

// EvidenceTarget returns the base variable-relation name for an evidence
// relation name, and whether the name follows the convention.
func EvidenceTarget(name string) (string, bool) {
	if strings.HasSuffix(name, EvidenceSuffix) && len(name) > len(EvidenceSuffix) {
		return strings.TrimSuffix(name, EvidenceSuffix), true
	}
	return "", false
}

// SemOf returns the rule's effective semantics given the program default.
func (p *Program) SemOf(r *Rule) factor.Semantics {
	if r.SemSet {
		return r.Sem
	}
	return p.DefaultSem
}

// String renders the whole program in source syntax, into one buffer: a
// checkpoint renders it for its image.
func (p *Program) String() string {
	var b []byte
	for _, name := range p.DeclOrder {
		d := p.Decls[name]
		kind := "@relation "
		if d.Variable {
			kind = "@variable "
		}
		b = append(append(append(b, kind...), d.Name...), '(')
		for i, c := range d.Cols {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, c...)
		}
		b = append(b, ").\n"...)
	}
	b = append(append(append(b, "@semantics("...), p.DefaultSem.String()...), ").\n"...)
	for _, r := range p.Rules {
		b = append(r.appendTo(b), '\n')
	}
	return string(b)
}
