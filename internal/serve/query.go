package serve

import (
	"strings"
	"sync"
)

// readQuery is the parameters of a point read or a facts scan, decoded
// from a raw query in one pass as url.ParseQuery decodes it and
// url.Values.Get and indexing read it: pairs split on '&', a pair holding
// ';' or a bad %-escape is dropped, '+' is a space, the first relation and
// the first threshold win, and every tuple counts, in order. It builds no
// map: the values it keeps are unescaped into buf, and their strings are
// cut from one copy of it.
type readQuery struct {
	relation, threshold string
	tuple               []string

	buf        []byte
	tupleSpans []span // each tuple component's bytes in buf
}

// span is one value's bytes in readQuery.buf.
type span struct{ lo, hi int }

// The parameters the reads take.
const (
	paramOther = iota
	paramRelation
	paramThreshold
	paramTuple
)

var queryPool = sync.Pool{New: func() any { return new(readQuery) }}

// getQuery decodes raw into a pooled readQuery; putQuery returns it.
func getQuery(raw string) *readQuery {
	q := queryPool.Get().(*readQuery)
	q.scan(raw)
	return q
}

func putQuery(q *readQuery) {
	clear(q.tuple) // a pooled query keeps no request's strings alive
	q.relation, q.threshold = "", ""
	queryPool.Put(q)
}

// scan decodes raw.
func (q *readQuery) scan(raw string) {
	q.buf, q.tupleSpans, q.tuple = q.buf[:0], q.tupleSpans[:0], q.tuple[:0]
	var rel, th span
	hasRel, hasTh := false, false
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		p := q.param(key)
		if p == paramOther || p == paramRelation && hasRel || p == paramThreshold && hasTh {
			continue
		}
		lo := len(q.buf)
		var ok bool
		if q.buf, ok = appendUnescaped(q.buf, value); !ok {
			q.buf = q.buf[:lo]
			continue
		}
		switch sp := (span{lo, len(q.buf)}); p {
		case paramRelation:
			rel, hasRel = sp, true
		case paramThreshold:
			th, hasTh = sp, true
		default:
			q.tupleSpans = append(q.tupleSpans, sp)
		}
	}
	s := string(q.buf)
	q.relation, q.threshold = s[rel.lo:rel.hi], s[th.lo:th.hi]
	for _, sp := range q.tupleSpans {
		q.tuple = append(q.tuple, s[sp.lo:sp.hi])
	}
}

// param names the parameter a raw key unescapes to: paramOther for one
// the reads ignore or that does not unescape.
func (q *readQuery) param(key string) int {
	name := key
	if strings.IndexByte(key, '%') >= 0 || strings.IndexByte(key, '+') >= 0 {
		lo := len(q.buf)
		var ok bool
		q.buf, ok = appendUnescaped(q.buf, key)
		name = string(q.buf[lo:])
		q.buf = q.buf[:lo]
		if !ok {
			return paramOther
		}
	}
	switch name {
	case "relation":
		return paramRelation
	case "threshold":
		return paramThreshold
	case "tuple":
		return paramTuple
	}
	return paramOther
}

// appendUnescaped appends s unescaped as url.QueryUnescape unescapes it,
// and reports false where QueryUnescape fails: at a '%' not followed by
// two hex digits.
func appendUnescaped(dst []byte, s string) ([]byte, bool) {
	start := 0 // s[start:i] is still to copy
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return dst, false
			}
			dst = append(append(dst, s[start:i]...), unhex(s[i+1])<<4|unhex(s[i+2]))
			i += 2
			start = i + 1
		case '+':
			dst = append(append(dst, s[start:i]...), ' ')
			start = i + 1
		}
	}
	return append(dst, s[start:]...), true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}
