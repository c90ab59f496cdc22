// Package jsonenc holds the pieces of a one-pass JSON writer whose
// output is byte for byte what encoding/json writes for the same
// value with json.MarshalIndent(v, prefix, "  "): strings quoted and
// HTML-escaped as json.Marshal quotes them, floats in json's shortest
// form, and each line started by a newline, the prefix and two spaces
// per level. Callers append a value's fields in its declaration
// order; the writer never reflects and never re-scans what it wrote.
// A float must be finite (see Finite): JSON cannot represent NaN or
// ±Inf, and a caller checks before writing so it can report the
// error encoding/json would.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// maxDepth bounds the nesting Indent can start a line at; levels is
// its indent.
const (
	maxDepth = 8
	levels   = "                "
)

// Indent is the line starts of one indented document:
// Indent.Line(d) is a newline, the document's prefix and d levels of
// two-space indent, as json.MarshalIndent(v, prefix, "  ") starts a
// line at depth d, and Indent.Next(d) is the same line after a comma.
type Indent string

// NewIndent returns the line starts of a document written with the
// given prefix. The two prefixes the writers use, "" for a document of
// its own and "  " for one nested in a reply, allocate nothing.
func NewIndent(prefix string) Indent {
	switch prefix {
	case "":
		return ",\n" + levels
	case "  ":
		return ",\n  " + levels
	}
	return Indent(",\n" + prefix + levels)
}

// Line returns the start of a line at the given depth, 0 <= depth <= 8.
func (in Indent) Line(depth int) string {
	return string(in[1 : len(in)-2*(maxDepth-depth)])
}

// Next returns a comma and the start of a line at the given depth: what
// precedes every member or element but the first.
func (in Indent) Next(depth int) string {
	return string(in[:len(in)-2*(maxDepth-depth)])
}

// AppendKey starts an object member: start (a Line for the first
// member, a Next for the others), then the key, which the caller
// passes quoted and with its colon, e.g. `"buffer": `. The callers'
// keys are Go field names and json tags, which JSON quotes as they are.
func AppendKey(b []byte, start, key string) []byte {
	b = append(b, start...)
	return append(b, key...)
}

// AppendArray writes xs as a member at the given depth: null when
// nil, [] when empty, otherwise one element a line at depth+1, each
// written by elem.
func AppendArray[T any](b []byte, in Indent, depth int, xs []T, elem func(b []byte, in Indent, depth int, x T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	if len(xs) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	b = append(b, in.Line(depth+1)...)
	next := in.Next(depth + 1)
	for i, x := range xs {
		if i > 0 {
			b = append(b, next...)
		}
		b = elem(b, in, depth+1, x)
	}
	b = append(b, in.Line(depth)...)
	return append(b, ']')
}

// StringElem writes a string element for AppendArray.
func StringElem(b []byte, _ Indent, _ int, s string) []byte { return AppendString(b, s) }

// IntElem writes an int element for AppendArray.
func IntElem(b []byte, _ Indent, _ int, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// plain marks the bytes encoding/json copies into a string as they
// are: printable ASCII except the quote, the backslash and the
// HTML-significant <, > and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// AppendString quotes s as encoding/json does. A string of plain
// bytes is copied; anything json would escape (control bytes, quotes,
// backslashes, <, >, &) or check (bytes >= 0x80: invalid UTF-8,
// U+2028/2029) is left to json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat formats a finite f as encoding/json does: the shortest
// decimal, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent written e-7 rather than e-07.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Finite reports whether JSON can represent f.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
