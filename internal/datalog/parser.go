package datalog

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"deepdive/internal/factor"
)

// Parse parses a DeepDive program. The grammar:
//
//	program    := { statement }
//	statement  := decl | rule
//	decl       := '@variable' Ident '(' cols ')' '.'
//	            | '@relation' Ident '(' cols ')' '.'
//	            | '@semantics' '(' ident ')' '.'
//	rule       := [Label ':'] atom [ ':-' body ] [weight] [sem] '.'
//	body       := item { ',' item }
//	item       := ['!'] atom | term op term
//	atom       := Ident '(' [ term { ',' term } ] ')'
//	term       := lowercase-ident | string | number | 'true' | 'false'
//	weight     := 'weight' '=' ( number | Ident '(' vars ')' )
//	sem        := 'sem' '=' ( 'linear' | 'logical' | 'ratio' )
//	op         := '=' | '!=' | '<' | '<='
//
// Identifiers starting with an upper-case letter are predicate or label
// names; lower-case identifiers are variables inside atoms. The constants
// true and false are recognized (used by supervision rule heads). Comments
// run from '#' or '//' to end of line.
//
// Parse validates the program: declared predicates, matching arities,
// range restriction (head and weight variables bound in the body),
// negation safety, and evidence-relation conventions.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: &Program{
		Decls:      make(map[string]*RelDecl),
		DefaultSem: factor.Linear,
	}}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if err := Validate(p.prog); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// MustParse is Parse that panics on error, for programs embedded in
// generators and tests.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseRules parses src as rules extending prog — what a rule update
// carries — without rendering and re-parsing prog itself: the rules are
// validated against prog's declarations exactly as Parse(prog.String() +
// src) validates them, and are returned without being added to prog. src
// holds rules only (an update cannot declare a relation), and a labelled
// rule must not reuse a label prog or src already holds.
func ParseRules(prog *Program, src string) ([]*Rule, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: &Program{}}
	for p.cur().kind != tokEOF {
		if t := p.cur(); t.kind == tokPunct && t.text == "@" {
			return nil, p.errorf(t, "a rule update cannot carry a declaration")
		}
		if err := p.parseRule(); err != nil {
			return nil, err
		}
	}
	labels := make(map[string]bool, len(prog.Rules))
	for _, r := range prog.Rules {
		labels[r.Label] = true
	}
	for _, r := range p.prog.Rules {
		if r.Label != "" && labels[r.Label] {
			return nil, fmt.Errorf("datalog: duplicate rule label %s", r.Label)
		}
		labels[r.Label] = true
		if err := validateRule(prog, r); err != nil {
			return nil, err
		}
	}
	return p.prog.Rules, nil
}

type parser struct {
	toks []token
	pos  int
	prog *Program
	// Slabs the rules, body atoms, terms and bodies are cut from: a
	// program's worth in a few allocations each, not one or more per atom.
	// A cut is a full slice (len == cap), so an append to it reallocates
	// instead of writing into the next one.
	rules []Rule
	atoms []Atom
	terms []Term
	body  []BodyItem
}

// cut returns the slab's elements from start on as a full slice, or nil
// when there are none.
func cut[T any](slab []T, start int) []T {
	if len(slab) == start {
		return nil
	}
	return slab[start:len(slab):len(slab)]
}

// bodyAtom moves a parsed body atom into the atom slab.
func (p *parser) bodyAtom(a Atom) *Atom {
	p.atoms = append(p.atoms, a)
	return &p.atoms[len(p.atoms)-1]
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("datalog: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(text string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != text {
		return p.errorf(t, "expected %q, found %s", text, t)
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf(t, "expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseProgram() error {
	for p.cur().kind != tokEOF {
		if p.cur().kind == tokPunct && p.cur().text == "@" {
			if err := p.parseDecl(); err != nil {
				return err
			}
			continue
		}
		if err := p.parseRule(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseDecl() error {
	p.advance() // '@'
	kw, err := p.expectIdent()
	if err != nil {
		return err
	}
	switch kw {
	case "variable", "relation":
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		var cols []string
		for {
			if p.cur().kind == tokPunct && p.cur().text == ")" {
				p.advance()
				break
			}
			col, err := p.expectIdent()
			if err != nil {
				return err
			}
			cols = append(cols, col)
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.advance()
			}
		}
		if err := p.expectPunct("."); err != nil {
			return err
		}
		if _, dup := p.prog.Decls[name]; dup {
			return fmt.Errorf("datalog: duplicate declaration of %s", name)
		}
		p.prog.Decls[name] = &RelDecl{Name: name, Cols: cols, Variable: kw == "variable"}
		p.prog.DeclOrder = append(p.prog.DeclOrder, name)
		return nil
	case "semantics":
		if err := p.expectPunct("("); err != nil {
			return err
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		sem, err := factor.ParseSemantics(name)
		if err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		if err := p.expectPunct("."); err != nil {
			return err
		}
		p.prog.DefaultSem = sem
		return nil
	default:
		return fmt.Errorf("datalog: unknown declaration @%s", kw)
	}
}

func isUpperIdent(s string) bool {
	return len(s) > 0 && s[0] >= 'A' && s[0] <= 'Z'
}

func (p *parser) parseTerm() (Term, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		p.advance()
		switch t.text {
		case "true", "false":
			return Term{Value: t.text}, nil
		}
		if isUpperIdent(t.text) {
			return Term{}, p.errorf(t, "term %q starts upper-case; variables are lower-case, constants are quoted", t.text)
		}
		return Term{IsVar: true, Name: t.text}, nil
	case tokString:
		p.advance()
		return Term{Value: t.text}, nil
	case tokNumber:
		p.advance()
		return Term{Value: t.text}, nil
	default:
		return Term{}, p.errorf(t, "expected term, found %s", t)
	}
}

func (p *parser) parseAtom() (Atom, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Atom{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return Atom{}, err
	}
	start := len(p.terms)
	for {
		if p.cur().kind == tokPunct && p.cur().text == ")" {
			p.advance()
			return Atom{Pred: name, Args: cut(p.terms, start)}, nil
		}
		term, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		p.terms = append(p.terms, term)
		if p.cur().kind == tokPunct && p.cur().text == "," {
			p.advance()
		}
	}
}

// parseBodyItem parses one conjunct: negated atom, atom, or comparison.
func (p *parser) parseBodyItem() (BodyItem, error) {
	if p.cur().kind == tokPunct && p.cur().text == "!" {
		p.advance()
		a, err := p.parseAtom()
		if err != nil {
			return BodyItem{}, err
		}
		return BodyItem{Atom: p.bodyAtom(a), Neg: true}, nil
	}
	// Lookahead: Ident '(' is an atom; otherwise a comparison.
	if p.cur().kind == tokIdent && isUpperIdent(p.cur().text) &&
		p.peek().kind == tokPunct && p.peek().text == "(" {
		a, err := p.parseAtom()
		if err != nil {
			return BodyItem{}, err
		}
		return BodyItem{Atom: p.bodyAtom(a)}, nil
	}
	l, err := p.parseTerm()
	if err != nil {
		return BodyItem{}, err
	}
	opTok := p.cur()
	if opTok.kind != tokPunct {
		return BodyItem{}, p.errorf(opTok, "expected comparison operator, found %s", opTok)
	}
	switch opTok.text {
	case "=", "!=", "<", "<=":
	default:
		return BodyItem{}, p.errorf(opTok, "unsupported comparison operator %q", opTok.text)
	}
	p.advance()
	r, err := p.parseTerm()
	if err != nil {
		return BodyItem{}, err
	}
	return BodyItem{Cond: &Cond{Op: opTok.text, L: l, R: r}}, nil
}

func (p *parser) parseRule() error {
	p.rules = append(p.rules, Rule{})
	r := &p.rules[len(p.rules)-1]
	// Optional label: Ident ':' (but not ':-').
	if p.cur().kind == tokIdent && p.peek().kind == tokPunct && p.peek().text == ":" {
		r.Label = p.advance().text
		p.advance() // ':'
	}
	head, err := p.parseAtom()
	if err != nil {
		return err
	}
	r.Head = head
	if p.cur().kind == tokPunct && p.cur().text == ":-" {
		p.advance()
		start := len(p.body)
		for {
			item, err := p.parseBodyItem()
			if err != nil {
				return err
			}
			p.body = append(p.body, item)
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.advance()
				continue
			}
			break
		}
		r.Body = cut(p.body, start)
	}
	// Optional weight clause.
	if p.cur().kind == tokIdent && p.cur().text == "weight" {
		p.advance()
		if err := p.expectPunct("="); err != nil {
			return err
		}
		r.Weight.HasWeight = true
		t := p.cur()
		switch t.kind {
		case tokNumber:
			p.advance()
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return p.errorf(t, "bad weight literal %q: %v", t.text, err)
			}
			r.Weight.IsFixed = true
			r.Weight.Fixed = v
		case tokIdent:
			fn := p.advance().text
			r.Weight.Func = fn
			if err := p.expectPunct("("); err != nil {
				return err
			}
			for {
				if p.cur().kind == tokPunct && p.cur().text == ")" {
					p.advance()
					break
				}
				v, err := p.expectIdent()
				if err != nil {
					return err
				}
				if isUpperIdent(v) {
					return fmt.Errorf("datalog: weight argument %q must be a variable", v)
				}
				r.Weight.Args = append(r.Weight.Args, v)
				if p.cur().kind == tokPunct && p.cur().text == "," {
					p.advance()
				}
			}
		default:
			return p.errorf(t, "expected weight value, found %s", t)
		}
	}
	// Optional semantics clause.
	if p.cur().kind == tokIdent && p.cur().text == "sem" {
		p.advance()
		if err := p.expectPunct("="); err != nil {
			return err
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		sem, err := factor.ParseSemantics(name)
		if err != nil {
			return err
		}
		r.Sem, r.SemSet = sem, true
	}
	if err := p.expectPunct("."); err != nil {
		return err
	}
	p.prog.Rules = append(p.prog.Rules, r)
	return nil
}

// Validate checks a program's static semantics and assigns rule kinds.
func Validate(prog *Program) error { return ValidateRules(prog, prog.Rules) }

// ValidateRules checks rules against prog's declarations and assigns their
// kinds. A rule's checks read only the declarations, so rules added to a
// validated program are validated alone.
func ValidateRules(prog *Program, rules []*Rule) error {
	for _, r := range rules {
		if err := validateRule(prog, r); err != nil {
			return err
		}
	}
	return nil
}

func validateRule(prog *Program, r *Rule) error {
	name := ruleName(r)
	headDecl := prog.Decls[r.Head.Pred]
	if headDecl == nil {
		return fmt.Errorf("datalog: %s: undeclared head relation %s", name, r.Head.Pred)
	}
	if len(r.Head.Args) != headDecl.Arity() {
		return fmt.Errorf("datalog: %s: head %s has %d args, declared arity %d",
			name, r.Head.Pred, len(r.Head.Args), headDecl.Arity())
	}
	// The variables positive body atoms bind: a handful, so a list.
	bound := make([]string, 0, 16)
	for _, b := range r.Body {
		if b.Atom == nil {
			continue
		}
		d := prog.Decls[b.Atom.Pred]
		if d == nil {
			return fmt.Errorf("datalog: %s: undeclared body relation %s", name, b.Atom.Pred)
		}
		if len(b.Atom.Args) != d.Arity() {
			return fmt.Errorf("datalog: %s: body atom %s has %d args, declared arity %d",
				name, b.Atom.Pred, len(b.Atom.Args), d.Arity())
		}
		if !b.Neg {
			for _, t := range b.Atom.Args {
				if t.IsVar && !slices.Contains(bound, t.Name) {
					bound = append(bound, t.Name)
				}
			}
		}
	}
	isBound := func(t Term) bool { return !t.IsVar || slices.Contains(bound, t.Name) }
	// Negation and condition safety: variables must be bound positively.
	for _, b := range r.Body {
		if b.Atom != nil && b.Neg {
			for _, t := range b.Atom.Args {
				if !isBound(t) {
					return fmt.Errorf("datalog: %s: variable %s in negated atom %s is not bound by a positive atom",
						name, t.Name, b.Atom.Pred)
				}
			}
		}
		if b.Cond != nil {
			for _, t := range []Term{b.Cond.L, b.Cond.R} {
				if !isBound(t) {
					return fmt.Errorf("datalog: %s: variable %s in condition is not bound by a positive atom", name, t.Name)
				}
			}
		}
	}
	// Range restriction: head variables bound in body (facts exempt).
	for _, t := range r.Head.Args {
		if len(r.Body) == 0 && t.IsVar {
			return fmt.Errorf("datalog: %s: fact with variables", name)
		}
		if !isBound(t) {
			return fmt.Errorf("datalog: %s: head variable %s is not bound in the body", name, t.Name)
		}
	}
	// Weight arguments bound in body or head.
	if r.Weight.HasWeight && !r.Weight.IsFixed {
		for _, v := range r.Weight.Args {
			inHead := slices.ContainsFunc(r.Head.Args, func(t Term) bool { return t.IsVar && t.Name == v })
			if !inHead && !slices.Contains(bound, v) {
				return fmt.Errorf("datalog: %s: weight argument %s is not bound", name, v)
			}
		}
	}
	// Classify.
	if base, isEv := EvidenceTarget(r.Head.Pred); isEv {
		if r.Weight.HasWeight {
			return fmt.Errorf("datalog: %s: supervision rule into %s cannot carry a weight", name, r.Head.Pred)
		}
		baseDecl := prog.Decls[base]
		if baseDecl == nil {
			return fmt.Errorf("datalog: %s: evidence relation %s has no base variable relation %s", name, r.Head.Pred, base)
		}
		if !baseDecl.Variable {
			return fmt.Errorf("datalog: %s: evidence base relation %s is not declared @variable", name, base)
		}
		if headDecl.Arity() != baseDecl.Arity()+1 {
			return fmt.Errorf("datalog: %s: evidence relation %s must have arity %d (base arity + label), has %d",
				name, r.Head.Pred, baseDecl.Arity()+1, headDecl.Arity())
		}
		r.Kind = KindSupervision
		return nil
	}
	if r.Weight.HasWeight {
		if !headDecl.Variable {
			return fmt.Errorf("datalog: %s: weighted rule head %s must be declared @variable", name, r.Head.Pred)
		}
		r.Kind = KindInference
		return nil
	}
	r.Kind = KindDerivation
	return nil
}

func ruleName(r *Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return "rule " + strings.SplitN(r.String(), " :-", 2)[0]
}
