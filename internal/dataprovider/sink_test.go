package dataprovider

import (
	"strings"
	"testing"
)

type captureJournal struct{ recs []Record }

func (c *captureJournal) AppendAsync(rec Record) { c.recs = append(c.recs, rec) }

// selfEncoded writes a marker instead of its JSON, so the test can tell
// which encoder Emit used.
type selfEncoded struct{ N int }

func (selfEncoded) AppendJSON(b []byte) []byte { return append(b, "self"...) }

// TestSinkEmitUsesAppender checks that Emit journals an Appender payload
// with its own encoder, in a buffer of its own, and any other payload
// through encoding/json.
func TestSinkEmitUsesAppender(t *testing.T) {
	var s Sink
	s.Emit(KindUserPut, selfEncoded{}) // no journal: dropped
	c := &captureJournal{}
	s.Attach(c)
	s.Emit(KindJobSubmit, selfEncoded{N: 1})
	s.Emit(KindJobSubmit, selfEncoded{N: 2})
	s.Emit(KindUserPut, struct {
		N int `json:"n"`
	}{N: 3})
	if len(c.recs) != 3 {
		t.Fatalf("journaled %d records, want 3", len(c.recs))
	}
	got := []string{string(c.recs[0].Data), string(c.recs[1].Data), string(c.recs[2].Data)}
	if strings.Join(got, " ") != `self self {"n":3}` {
		t.Fatalf("records = %q", got)
	}
	if &c.recs[0].Data[0] == &c.recs[1].Data[0] {
		t.Fatal("two appended records share a buffer")
	}
}
