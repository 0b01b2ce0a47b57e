// Package datalog implements DeepDive's declarative language (Section 2.2
// of the paper): datalog-style rules with weights, weight tying, UDF
// weight expressions, and per-rule counting semantics. A program consists
// of relation declarations and rules; see Parse for the grammar.
package datalog

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexer token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // one of ( ) , . : :- = != < <= ! @
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("datalog: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipSpaceAndComments consumes whitespace, // line comments, and
// # line comments.
func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		start := l.pos
		l.advance() // first digit or '-'
		for l.pos < len(l.src) {
			c := l.peekByte()
			if c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' || c == 'e' || c == 'E' {
				l.advance()
				continue
			}
			if (c == '-' || c == '+') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E') {
				l.advance()
				continue
			}
			break
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: line, col: col}, nil
	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(line, col, "unterminated string literal")
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\\' {
				if l.pos >= len(l.src) {
					return token{}, l.errorf(line, col, "unterminated escape in string literal")
				}
				e := l.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"', '\\':
					sb.WriteByte(e)
				default:
					return token{}, l.errorf(line, col, "unknown escape \\%c", e)
				}
				continue
			}
			sb.WriteByte(c)
		}
		return token{kind: tokString, text: sb.String(), line: line, col: col}, nil
	default:
		// Multi-character punctuation first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case ":-", "!=", "<=":
			l.advance()
			l.advance()
			return token{kind: tokPunct, text: two, line: line, col: col}, nil
		}
		switch c {
		case '(', ')', ',', '.', ':', '=', '<', '!', '@':
			text := l.src[l.pos : l.pos+1]
			l.advance()
			return token{kind: tokPunct, text: text, line: line, col: col}, nil
		}
		return token{}, l.errorf(line, col, "unexpected character %q", string(c))
	}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	// Programs run 3–4 bytes a token (3.1–4.0 on News, Genomics and
	// Pharma): one allocation, where growing from empty makes a dozen. A
	// denser source grows the slice as usual.
	toks := make([]token, 0, len(src)/3+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
