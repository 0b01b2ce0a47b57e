package datalog

import (
	"fmt"
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
func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return fmt.Sprintf("%q", t.Value)
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// String renders the atom in source syntax.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Cond is a comparison body item.
type Cond struct {
	Op   string // "=", "!=", "<", "<="
	L, R Term
}

// String renders the condition.
func (c Cond) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// BodyItem is one conjunct of a rule body: an atom (possibly negated) or
// a comparison.
type BodyItem struct {
	Atom *Atom
	Neg  bool
	Cond *Cond
}

// String renders the body item.
func (b BodyItem) String() string {
	if b.Cond != nil {
		return b.Cond.String()
	}
	if b.Neg {
		return "!" + b.Atom.String()
	}
	return b.Atom.String()
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
func (w WeightExpr) String() string {
	if !w.HasWeight {
		return ""
	}
	if w.IsFixed {
		return fmt.Sprintf("weight = %g", w.Fixed)
	}
	return fmt.Sprintf("weight = %s(%s)", w.Func, strings.Join(w.Args, ", "))
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
func (r *Rule) String() string {
	var sb strings.Builder
	if r.Label != "" {
		sb.WriteString(r.Label)
		sb.WriteString(": ")
	}
	sb.WriteString(r.Head.String())
	if len(r.Body) > 0 {
		sb.WriteString(" :- ")
		parts := make([]string, len(r.Body))
		for i, b := range r.Body {
			parts[i] = b.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
	}
	if r.Weight.HasWeight {
		sb.WriteString(" ")
		sb.WriteString(r.Weight.String())
	}
	if r.SemSet {
		fmt.Fprintf(&sb, " sem = %s", r.Sem)
	}
	sb.WriteString(".")
	return sb.String()
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

// String renders the whole program in source syntax.
func (p *Program) String() string {
	var sb strings.Builder
	for _, name := range p.DeclOrder {
		d := p.Decls[name]
		kind := "@relation"
		if d.Variable {
			kind = "@variable"
		}
		fmt.Fprintf(&sb, "%s %s(%s).\n", kind, d.Name, strings.Join(d.Cols, ", "))
	}
	fmt.Fprintf(&sb, "@semantics(%s).\n", p.DefaultSem)
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteString("\n")
	}
	return sb.String()
}
