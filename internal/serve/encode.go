package serve

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The replies of the hot paths — a /v1/marginal body, a /v1/facts fact, a
// subscription's delta event — are appended by hand, in the bytes
// encoding/json writes for them (json.Marshal, and json.Encoder, which
// adds a newline): fields in declaration order, omitempty fields left out
// at their zero value, strings HTML-escaped. A reflected encode cost more
// than the rest of a point read.

// appendMarginal appends the /v1/marginal body: known, with the fact's
// probability p (the 200), or not (the 404, which carries none).
func appendMarginal(dst []byte, epoch uint64, known bool, p float64, rel string, tuple []string) []byte {
	dst = strconv.AppendUint(append(dst, `{"epoch":`...), epoch, 10)
	if known {
		dst = appendFloat(append(dst, `,"known":true,"probability":`...), p)
	} else {
		dst = append(dst, `,"known":false`...)
	}
	dst = appendString(append(dst, `,"relation":`...), rel)
	dst = appendStrings(append(dst, `,"tuple":`...), tuple)
	return append(dst, "}\n"...)
}

// appendFact appends one Fact as json.Marshal writes it.
func appendFact(dst []byte, f *Fact) []byte {
	dst = appendStrings(append(dst, `{"tuple":`...), f.Tuple)
	dst = appendFloat(append(dst, `,"probability":`...), f.Probability)
	dst = strconv.AppendBool(append(dst, `,"known":`...), f.Known)
	if f.Evidence {
		dst = append(dst, `,"evidence":true`...)
	}
	return append(dst, '}')
}

// appendDelta appends one deltaEvent as json.Marshal writes it.
func appendDelta(dst []byte, ev *deltaEvent) []byte {
	dst = strconv.AppendUint(append(dst, `{"epoch":`...), ev.Epoch, 10)
	if ev.Skipped != 0 {
		dst = strconv.AppendUint(append(dst, `,"skipped":`...), ev.Skipped, 10)
	}
	dst = append(dst, `,"changes":`...)
	if ev.Changes == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range ev.Changes {
		c := &ev.Changes[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"relation":`...), c.Relation)
		dst = appendStrings(append(dst, `,"tuple":`...), c.Tuple)
		dst = appendFloat(append(dst, `,"probability":`...), c.Probability)
		dst = strconv.AppendBool(append(dst, `,"known":`...), c.Known)
		if c.Evidence {
			dst = append(dst, `,"evidence":true`...)
		}
		if c.Delta != 0 {
			dst = appendFloat(append(dst, `,"delta":`...), c.Delta)
		}
		if c.Removed {
			dst = append(dst, `,"removed":true`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendStrings appends a []string: an array, or null for a nil slice.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloat appends a finite float64 (every marginal and delta is one)
// as encoding/json writes it: the shortest form that reads back as f, in
// 'f' format between 1e-6 and 1e21 and in 'e' format outside, its
// exponent without a leading zero.
func appendFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// jsonSafe marks the ASCII bytes a JSON string carries as they are.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendString appends s as a JSON string as encoding/json writes it:
// '"' and '\\' escaped, the control characters as \b \f \n \r \t or
// \u00XX, '<', '>' and '&' as \u003c \u003e \u0026, each byte of invalid
// UTF-8 as \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is still to copy
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
