// Package trace records per-job span trees: the lifecycle of one job —
// submit → queued → dispatch → compile → running → terminal — as timed spans
// with attributes (node assignments, cache hits, cancellation causes). A
// Trace is created at submission, reaches every pipeline layer (jobs,
// scheduler, cluster, and the toolchain through the running job's context),
// and is served by the portal at GET /api/jobs/{id}/trace so a student or
// instructor can see exactly where a job spent its time.
//
// A trace is a flat log kept by append under one mutex: each span is a
// parent index plus start and end offsets from the trace's start, and every
// attribute of every span sits in one slice. Span names and attribute keys
// are indexes into a fixed table of the words the pipeline records, with a
// per-trace fallback for any other word. The common shape of a finished
// job fits the trace's inline storage, so New is its only allocation. The
// tree exists only on the way out: AppendJSON encodes it straight from the
// log, and Snapshot builds it for Go callers. Every method is safe on a nil
// receiver, so instrumentation sites never need to guard against an absent
// trace.
package trace

import (
	"context"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/jsonenc"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// words is the fixed vocabulary of span names and attribute keys the
// pipeline records. A span or attribute stores its word as an index into
// this table, or, from len(words) on, into its trace's extra words.
var words = [...]string{
	// span names
	"job", "queued", "compiling", "running", "allocate", "dispatch", "compile", "release",
	// attribute keys
	"job_id", "owner", "source", "ranks", "request_id", "restored", "state", "failure",
	"cause", "policy", "nodes", "node_ids", "language", "cached", "artifact", "deduped", "ok",
}

var wordIndex = func() map[string]uint32 {
	m := make(map[string]uint32, len(words))
	for i, w := range words {
		m[w] = uint32(i)
	}
	return m
}()

// open is the end offset of a span that has not closed.
const open = math.MinInt64

// span is one entry of the log. start and end are nanosecond offsets from
// the trace's t0; parent indexes the log (-1 for the root) and name the
// words.
type span struct {
	start, end int64
	parent     int32
	name       uint32
}

// attr is one annotation: the span it belongs to, its key's word index and
// its value.
type attr struct {
	value string
	span  int32
	key   uint32
}

// Trace is the span tree of one job. Create with New; the root span opens
// immediately and closes at Finish.
type Trace struct {
	mu    sync.Mutex
	clk   clock.Clock
	t0    time.Time // the root's start; span times are offsets from it
	spans []span    // spans[0] is the root; a child always follows its parent
	attrs []attr    // every span's annotations, in recording order
	extra []string  // words outside the fixed table

	// Inline storage for the common shape: a finished one-line job records
	// 8 spans and 13 attributes.
	spanBuf [8]span
	attrBuf [14]attr
}

// Span is a handle to one recorded span.
type Span struct {
	tr  *Trace
	idx int
}

// New returns a Trace whose root span has the given name and starts now.
func New(name string, clk clock.Clock) *Trace {
	if clk == nil {
		clk = clock.Real{}
	}
	t := &Trace{clk: clk, t0: clk.Now()}
	t.spans = append(t.spanBuf[:0], span{end: open, parent: -1, name: t.word(name)})
	t.attrs = t.attrBuf[:0]
	return t
}

// word returns w's index, adding it to the extra words when it is in
// neither table. Callers hold t.mu, except New, which owns t.
func (t *Trace) word(w string) uint32 {
	if i, ok := t.lookup(w); ok {
		return i
	}
	t.extra = append(t.extra, w)
	return uint32(len(words) + len(t.extra) - 1)
}

// lookup returns w's index if w has one.
func (t *Trace) lookup(w string) (uint32, bool) {
	if i, ok := wordIndex[w]; ok {
		return i, true
	}
	for i, x := range t.extra {
		if x == w {
			return uint32(len(words) + i), true
		}
	}
	return 0, false
}

// wordAt is the word at index i.
func (t *Trace) wordAt(i uint32) string {
	if int(i) < len(words) {
		return words[i]
	}
	return t.extra[int(i)-len(words)]
}

// now is the current offset from t0.
func (t *Trace) now() int64 { return int64(t.clk.Now().Sub(t.t0)) }

// annotate appends one attribute of span i. Callers hold t.mu.
func (t *Trace) annotate(i int, key, value string) {
	t.attrs = append(t.attrs, attr{value: value, span: int32(i), key: t.word(key)})
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, idx: 0}
}

// StartSpan opens a child of the root span.
func (t *Trace) StartSpan(name string, attrs ...Attr) *Span {
	return t.Root().StartSpan(name, attrs...)
}

// StartSpan opens a child span under s.
func (s *Span) StartSpan(name string, attrs ...Attr) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return &Span{tr: s.tr, idx: s.tr.start(s.idx, name, attrs)}
}

// start appends a span opening now under parent and returns its index.
func (t *Trace) start(parent int, name string, attrs []Attr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	t.spans = append(t.spans, span{start: t.now(), end: open, parent: int32(parent), name: t.word(name)})
	for _, a := range attrs {
		t.annotate(i, a.Key, a.Value)
	}
	return i
}

// Annotate adds a key/value attribute to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.annotate(s.idx, key, value)
	s.tr.mu.Unlock()
}

// End closes the span. Ending an already-closed span is a no-op.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if t.spans[s.idx].end == open {
		t.spans[s.idx].end = t.now()
	}
	t.mu.Unlock()
}

// EndSpan closes the most recently opened still-open span with the given
// name and reports whether one was found.
func (t *Trace) EndSpan(name string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.lookup(name)
	if !ok {
		return false
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].name == w && t.spans[i].end == open {
			t.spans[i].end = t.now()
			return true
		}
	}
	return false
}

// Finish annotates the root span with the given attributes, then closes
// every still-open span (the root included). It is the terminal-state hook:
// the jobs store calls it exactly once when a job leaves the pipeline. The
// trace stays open to appends: the scheduler records the job's release after
// it.
func (t *Trace) Finish(attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range attrs {
		t.annotate(0, a.Key, a.Value)
	}
	now := t.now()
	for i := range t.spans {
		if t.spans[i].end == open {
			t.spans[i].end = now
		}
	}
}

// SpanJSON is the wire form of one span; children nest.
type SpanJSON struct {
	Name string `json:"name"`
	// Start and End are absolute timestamps; End is zero while the span is
	// open.
	Start time.Time `json:"start"`
	End   time.Time `json:"end,omitempty"`
	// DurationUS is End-Start in microseconds, -1 while the span is open.
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// Snapshot materialises the span tree. Children appear in start order; a
// key annotated twice on one span keeps its last value.
func (t *Trace) Snapshot() SpanJSON {
	if t == nil {
		return SpanJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	// Every span but the root lands in kids, parent by parent and each
	// parent's children in log order, so span p's children are
	// kids[first[p]:first[p+1]] and one pass over the log places them all.
	kids := make([]SpanJSON, n-1)
	ix := make([]int, 2*n+1)
	first, next := ix[:n+1], ix[n+1:]
	for i := 1; i < n; i++ {
		first[t.spans[i].parent+1]++
	}
	for p := 1; p <= n; p++ {
		first[p] += first[p-1]
	}
	copy(next, first[:n])
	node := func(i int) SpanJSON {
		out := t.spanJSON(i)
		if first[i] < first[i+1] {
			out.Children = kids[first[i]:first[i+1]]
		}
		return out
	}
	for i := 1; i < n; i++ {
		p := t.spans[i].parent
		kids[next[p]] = node(i)
		next[p]++
	}
	return node(0)
}

// spanJSON is span i without its children. Callers hold t.mu.
func (t *Trace) spanJSON(i int) SpanJSON {
	sp := &t.spans[i]
	out := SpanJSON{Name: t.wordAt(sp.name), Start: t.t0.Add(time.Duration(sp.start)), DurationUS: -1}
	if sp.end != open {
		out.End = t.t0.Add(time.Duration(sp.end))
		out.DurationUS = time.Duration(sp.end - sp.start).Microseconds()
	}
	for _, a := range t.attrs {
		if int(a.span) != i {
			continue
		}
		if out.Attrs == nil {
			out.Attrs = make(map[string]string)
		}
		out.Attrs[t.wordAt(a.key)] = a.value
	}
	return out
}

// nilJSON is what encoding/json makes of a nil trace's Snapshot.
const nilJSON = `{"name":"","start":"0001-01-01T00:00:00Z","end":"0001-01-01T00:00:00Z","duration_us":0}`

// AppendJSON appends the trace as the bytes encoding/json makes of its
// Snapshot, straight from the log: attribute keys sorted with the last
// value winning, an open span's end as the zero time and its duration as
// -1, and empty attrs and children omitted. It allocates nothing when b has
// room.
func (t *Trace) AppendJSON(b []byte) []byte {
	if t == nil {
		return append(b, nilJSON...)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendSpan(b, 0)
}

// appendSpan appends span i and its subtree. A child always follows its
// parent in the log, so the scan for children starts after i.
func (t *Trace) appendSpan(b []byte, i int) []byte {
	sp := &t.spans[i]
	b = append(b, `{"name":`...)
	b = jsonenc.AppendString(b, t.wordAt(sp.name))
	b = append(b, `,"start":`...)
	b = jsonenc.AppendTime(b, t.t0.Add(time.Duration(sp.start)))
	b = append(b, `,"end":`...)
	dur := int64(-1)
	if sp.end == open {
		b = jsonenc.AppendTime(b, time.Time{})
	} else {
		b = jsonenc.AppendTime(b, t.t0.Add(time.Duration(sp.end)))
		dur = time.Duration(sp.end - sp.start).Microseconds()
	}
	b = append(b, `,"duration_us":`...)
	b = strconv.AppendInt(b, dur, 10)
	b = t.appendAttrs(b, i)
	sep := byte(0)
	for c := i + 1; c < len(t.spans); c++ {
		if int(t.spans[c].parent) != i {
			continue
		}
		if sep == 0 {
			b = append(b, `,"children":[`...)
			sep = ','
		} else {
			b = append(b, sep)
		}
		b = t.appendSpan(b, c)
	}
	if sep != 0 {
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendAttrs appends span i's attributes as a JSON object member, keys in
// encoding/json's map order (byte-wise), or nothing when it has none.
func (t *Trace) appendAttrs(b []byte, i int) []byte {
	var buf [16]int32
	idx := buf[:0]
	for k := range t.attrs {
		if int(t.attrs[k].span) == i {
			idx = append(idx, int32(k))
		}
	}
	if len(idx) == 0 {
		return b
	}
	// A stable insertion sort by key: of a repeated key's entries, the one
	// recorded last sorts last, and only that one is written.
	for x := 1; x < len(idx); x++ {
		for y := x; y > 0 && t.wordAt(t.attrs[idx[y-1]].key) > t.wordAt(t.attrs[idx[y]].key); y-- {
			idx[y-1], idx[y] = idx[y], idx[y-1]
		}
	}
	b = append(b, `,"attrs":{`...)
	sep := false
	for x, k := range idx {
		a := &t.attrs[k]
		if x+1 < len(idx) && t.attrs[idx[x+1]].key == a.key {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = jsonenc.AppendString(b, t.wordAt(a.key))
		b = append(b, ':')
		b = jsonenc.AppendString(b, a.value)
	}
	return append(b, '}')
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the trace.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. All Trace and Span
// methods tolerate nil, so callers can instrument unconditionally.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
