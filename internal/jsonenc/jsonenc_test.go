package jsonenc

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestAppendBytesParity pins the escaper to encoding/json: for every probe
// the bytes must match json.Marshal of the same string exactly, HTML
// escaping and invalid-UTF-8 replacement included.
func TestAppendBytesParity(t *testing.T) {
	probes := []string{
		"",
		"plain ascii",
		`quotes " and \ backslash`,
		"newline\n tab\t cr\r",
		"control \x00\x01\x1f bytes",
		"html <tag> & entity",
		"unicode – ñ – 日本語",
		"line sep   and   end",
		"invalid \xff\xfe utf8",
		"mixed \xc3\x28 sequence",
		"trailing backslash \\",
	}
	for _, p := range probes {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBytes(nil, []byte(p)); !bytes.Equal(got, want) {
			t.Errorf("AppendBytes(%q) = %s, want %s", p, got, want)
		}
		if got := AppendString(nil, p); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", p, got, want)
		}
	}
}

// TestAppendTimeParity pins AppendTime to time.Time's MarshalJSON: the zero
// time, whole and fractional seconds, and zones east and west of UTC.
func TestAppendTimeParity(t *testing.T) {
	east := time.FixedZone("CEST", 2*3600)
	west := time.FixedZone("NST", -(3*3600 + 30*60))
	probes := []time.Time{
		{},
		time.Date(2026, 8, 8, 10, 30, 0, 0, time.UTC),
		time.Date(2026, 8, 8, 10, 30, 0, 123456789, time.UTC),
		time.Date(2026, 8, 8, 10, 30, 0, 120000000, east),
		time.Date(1999, 12, 31, 23, 59, 59, 1, west),
		time.Now(),
	}
	for _, p := range probes {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendTime(nil, p); !bytes.Equal(got, want) {
			t.Errorf("AppendTime(%v) = %s, want %s", p, got, want)
		}
	}
}
