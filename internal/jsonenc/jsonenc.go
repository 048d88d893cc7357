// Package jsonenc holds the append encoders the portal's hot paths share:
// a JSON string escaper and a time renderer that produce byte for byte what
// encoding/json produces for the same values, without the reflection walk
// or the interface boxing. The portal's responses, the job trace and the
// hot WAL records all encode through it, so there is one escaper to keep in
// step with encoding/json.
package jsonenc

import (
	"time"
	"unicode/utf8"
	"unsafe"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal. The string's bytes are
// viewed in place (read-only) to share one escaper with AppendBytes.
func AppendString(b []byte, s string) []byte {
	if len(s) == 0 {
		return append(b, '"', '"')
	}
	return AppendBytes(b, unsafe.Slice(unsafe.StringData(s), len(s)))
}

// AppendBytes appends s as a JSON string literal, escaping exactly the set
// encoding/json escapes by default: quotes, backslashes, control
// characters, the HTML-sensitive <, >, &, the line separators U+2028/U+2029,
// and invalid UTF-8 (replaced with U+FFFD).
func AppendBytes(b []byte, s []byte) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendTime appends t as encoding/json renders a time.Time: a quoted
// RFC 3339 timestamp with nanoseconds when present.
func AppendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}
