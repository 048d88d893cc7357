package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestSpanTreeShapeAndDurations(t *testing.T) {
	clk := clock.NewSim()
	tr := New("job", clk)
	tr.Root().Annotate("job_id", "job-000001")

	q := tr.StartSpan("queued")
	clk.Advance(5 * time.Millisecond)
	q.End()

	d := tr.StartSpan("dispatch", Attr{Key: "policy", Value: "pack"})
	c := d.StartSpan("compile")
	clk.Advance(2 * time.Millisecond)
	c.End()
	d.End()

	tr.Finish(Attr{Key: "state", Value: "succeeded"})

	root := tr.Snapshot()
	if root.Name != "job" || root.Attrs["job_id"] != "job-000001" || root.Attrs["state"] != "succeeded" {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	// Children appear in start order.
	if root.Children[0].Name != "queued" || root.Children[1].Name != "dispatch" {
		t.Fatalf("children = %s, %s", root.Children[0].Name, root.Children[1].Name)
	}
	if got := root.Children[0].DurationUS; got != 5000 {
		t.Fatalf("queued duration = %dus, want 5000", got)
	}
	disp := root.Children[1]
	if disp.Attrs["policy"] != "pack" {
		t.Fatalf("dispatch attrs = %v", disp.Attrs)
	}
	if len(disp.Children) != 1 || disp.Children[0].Name != "compile" {
		t.Fatalf("dispatch children = %+v", disp.Children)
	}
	if disp.Children[0].DurationUS != 2000 {
		t.Fatalf("compile duration = %dus, want 2000", disp.Children[0].DurationUS)
	}
	if root.DurationUS != 7000 {
		t.Fatalf("root duration = %dus, want 7000", root.DurationUS)
	}
}

func TestOpenSpanHasNegativeDuration(t *testing.T) {
	tr := New("job", clock.NewSim())
	tr.StartSpan("queued")
	snap := tr.Snapshot()
	if snap.DurationUS != -1 || snap.Children[0].DurationUS != -1 {
		t.Fatalf("open spans should report -1, got %d and %d",
			snap.DurationUS, snap.Children[0].DurationUS)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	clk := clock.NewSim()
	tr := New("job", clk)
	sp := tr.StartSpan("queued")
	clk.Advance(time.Millisecond)
	sp.End()
	clk.Advance(time.Hour) // must not move the recorded end
	sp.End()
	if got := tr.Snapshot().Children[0].DurationUS; got != 1000 {
		t.Fatalf("duration = %dus, want 1000", got)
	}
}

func TestEndSpanByName(t *testing.T) {
	clk := clock.NewSim()
	tr := New("job", clk)
	tr.StartSpan("queued")
	tr.StartSpan("queued") // a second open span with the same name
	if !tr.EndSpan("queued") {
		t.Fatal("EndSpan should find the open span")
	}
	// The most recent one closed; the first is still open.
	snap := tr.Snapshot()
	if snap.Children[0].DurationUS != -1 {
		t.Fatal("first queued span should still be open")
	}
	if snap.Children[1].DurationUS == -1 {
		t.Fatal("second queued span should be closed")
	}
	if tr.EndSpan("nonexistent") {
		t.Fatal("EndSpan on an unknown name should report false")
	}
}

func TestFinishClosesEverything(t *testing.T) {
	clk := clock.NewSim()
	tr := New("job", clk)
	tr.StartSpan("queued")
	tr.StartSpan("running")
	clk.Advance(time.Second)
	tr.Finish(Attr{Key: "state", Value: "cancelled"}, Attr{Key: "cause", Value: "user"})
	snap := tr.Snapshot()
	if snap.DurationUS == -1 {
		t.Fatal("root should be closed")
	}
	for _, child := range snap.Children {
		if child.DurationUS == -1 {
			t.Fatalf("span %s left open after Finish", child.Name)
		}
	}
	if snap.Attrs["state"] != "cancelled" || snap.Attrs["cause"] != "user" {
		t.Fatalf("root attrs = %v", snap.Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.Root() != nil {
		t.Fatal("nil trace root should be nil")
	}
	// None of these may panic.
	sp := tr.StartSpan("x")
	sp.Annotate("k", "v")
	sp.End()
	sp.StartSpan("y").End()
	tr.EndSpan("x")
	tr.Finish()
	if got := tr.Snapshot(); got.Name != "" {
		t.Fatalf("nil snapshot = %+v", got)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatal("nil context should carry no trace")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New("job", clock.NewSim())
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	// The trace survives a derived cancellable context — how it actually
	// rides through the scheduler.
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	if FromContext(ctx2) != tr {
		t.Fatal("trace lost in derived context")
	}
}

// floodShaped records what a finished one-line job's trace holds, in the
// order the pipeline records it: the store's submit and state spans, the
// portal's request ID, the cluster's allocation, the dispatch, a cached
// compile and the release after the terminal transition. It has 8 spans
// and 13 attributes. nodeIDs and rid are built per job, as the cluster and
// the portal build them.
func floodShaped(clk clock.Clock, jobID string, n int) *Trace {
	tr := New("job", clk)
	tr.Root().Annotate("job_id", jobID)
	tr.Root().Annotate("owner", "alice")
	tr.Root().Annotate("source", "/main.mc")
	tr.Root().Annotate("ranks", strconv.Itoa(1))
	tr.StartSpan("queued")
	tr.Root().Annotate("request_id", "req-"+strconv.FormatInt(int64(0x10000000+n), 16))
	sp := tr.StartSpan("allocate", Attr{Key: "nodes", Value: strconv.Itoa(1)})
	sp.Annotate("node_ids", "s0n"+strconv.Itoa(10+n%50))
	sp.End()
	tr.StartSpan("dispatch", Attr{Key: "policy", Value: "pack"}).End()
	tr.EndSpan("queued")
	tr.StartSpan("compiling")
	c := tr.StartSpan("compile", Attr{Key: "language", Value: "minic"})
	c.Annotate("cached", "true")
	c.Annotate("artifact", "art-000001")
	c.End()
	tr.EndSpan("compiling")
	tr.StartSpan("running")
	tr.EndSpan("running")
	tr.Finish(Attr{Key: "state", Value: "succeeded"})
	tr.StartSpan("release", Attr{Key: "nodes", Value: strconv.Itoa(1)}).End()
	return tr
}

// tickClock advances by a fixed step on every reading, so each span of a
// recorded trace gets distinct, sub-microsecond-precise times.
type tickClock struct {
	now  time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *tickClock) Sleep(time.Duration) {}

func newTick(loc *time.Location) *tickClock {
	return &tickClock{now: time.Date(2026, 10, 19, 9, 0, 0, 0, loc), step: 1234567 * time.Nanosecond}
}

// TestAppendJSONParity pins AppendJSON to encoding/json of the Snapshot it
// replaces on the wire, for every shape a trace takes.
func TestAppendJSONParity(t *testing.T) {
	cases := map[string]func() *Trace{
		"open": func() *Trace {
			tr := New("job", newTick(time.UTC))
			tr.Root().Annotate("job_id", "job-000001")
			tr.StartSpan("queued")
			return tr
		},
		"flood-finished": func() *Trace { return floodShaped(newTick(time.UTC), "job-000002", 1) },
		"real-clock":     func() *Trace { return floodShaped(nil, "job-000003", 2) },
		"cancelled": func() *Trace {
			tr := New("job", newTick(time.FixedZone("CEST", 2*3600)))
			tr.Root().Annotate("job_id", "job-000004")
			tr.StartSpan("queued")
			tr.EndSpan("queued")
			tr.StartSpan("running")
			tr.Finish(Attr{Key: "state", Value: "cancelled"}, Attr{Key: "failure", Value: "cancelled by user"},
				Attr{Key: "cause", Value: "jobs: job cancelled: cancelled by user"})
			return tr
		},
		"restored": func() *Trace {
			tr := New("job", newTick(time.UTC))
			tr.Root().Annotate("job_id", "job-000005")
			tr.Root().Annotate("owner", "bo")
			tr.Root().Annotate("restored", "true")
			tr.Finish()
			return tr
		},
		"large": func() *Trace {
			tr := New("job", newTick(time.UTC))
			for i := 0; i < 12; i++ {
				sp := tr.StartSpan("rank" + strconv.Itoa(i))
				sp.Annotate("steps", strconv.Itoa(i*1000))
				sp.Annotate("sent", strconv.Itoa(i))
				sp.StartSpan("wait").End()
				if i%2 == 0 {
					sp.End()
				}
			}
			return tr
		},
		"repeated-key": func() *Trace {
			tr := New("job", newTick(time.UTC))
			tr.Root().Annotate("state", "running")
			tr.Root().Annotate("owner", "alice")
			tr.Root().Annotate("state", "succeeded")
			sp := tr.StartSpan("compile", Attr{Key: "cached", Value: "false"})
			sp.Annotate("cached", "true")
			sp.End()
			return tr
		},
		"escaping": func() *Trace {
			tr := New("job", newTick(time.UTC))
			tr.Root().Annotate("source", "/dir \"q\" <b>&amp;\u2028\u2029\xff.mc")
			tr.Root().Annotate("k\"<y>", "v\n\t\\")
			tr.StartSpan("span \xc3\x28 <x>").End()
			tr.Finish(Attr{Key: "failure", Value: "compile failed:\n  /a.mc:1: unexpected \"}\" & <eof>\x00"})
			return tr
		},
	}
	for name, build := range cases {
		tr := build()
		want, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	var nilTrace *Trace
	want, _ := json.Marshal(nilTrace.Snapshot())
	if got := nilTrace.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Errorf("nil trace: got %s, want %s", got, want)
	}
}

// TestSnapshotTree pins the tree Snapshot builds from the log: children in
// start order under their own parent, times from the clock, the last value
// of a repeated key, and an open span's zero end and -1 duration.
func TestSnapshotTree(t *testing.T) {
	clk := clock.NewSim()
	t0 := clk.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	tr := New("job", clk)
	tr.Root().Annotate("owner", "alice")
	a := tr.StartSpan("a")
	clk.Advance(time.Millisecond)
	a1 := a.StartSpan("a1", Attr{Key: "k", Value: "1"})
	b := tr.StartSpan("b")
	clk.Advance(time.Millisecond)
	a1.Annotate("k", "2")
	a1.End()
	a2 := a.StartSpan("a2")
	clk.Advance(time.Millisecond)
	a.End()
	b.End()
	_ = a2
	want := SpanJSON{Name: "job", Start: at(0), DurationUS: -1, Attrs: map[string]string{"owner": "alice"},
		Children: []SpanJSON{
			{Name: "a", Start: at(0), End: at(3 * time.Millisecond), DurationUS: 3000, Children: []SpanJSON{
				{Name: "a1", Start: at(time.Millisecond), End: at(2 * time.Millisecond), DurationUS: 1000,
					Attrs: map[string]string{"k": "2"}},
				{Name: "a2", Start: at(2 * time.Millisecond), DurationUS: -1},
			}},
			{Name: "b", Start: at(time.Millisecond), End: at(3 * time.Millisecond), DurationUS: 2000},
		}}
	if got := tr.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot:\n got %+v\nwant %+v", got, want)
	}
}

// TestAppendJSONZeroAlloc gates encoding a finished flood-shaped trace into
// a reused buffer at zero allocations.
func TestAppendJSONZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	tr := floodShaped(nil, "job-000001", 1)
	buf := tr.AppendJSON(nil)
	allocs := testing.AllocsPerRun(200, func() {
		buf = tr.AppendJSON(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendJSON allocates %v/op, want 0", allocs)
	}
}

// TestNewIsOneAllocation gates the inline storage: a new trace, its root
// and the common shape's spans and attributes live in one allocation.
func TestNewIsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	if allocs := testing.AllocsPerRun(200, func() { New("job", clock.Real{}) }); allocs != 1 {
		t.Fatalf("New allocates %v/op, want 1", allocs)
	}
}

// TestFinishedTraceRetainedBytes gates what a finished flood-shaped trace
// keeps alive: at most 768 B, measured over 10,000 traces. The job ID is
// the job record's own string and is built before measuring; the request
// and node IDs are built per trace, as the portal and the cluster build
// them.
func TestFinishedTraceRetainedBytes(t *testing.T) {
	const n = 10000
	jobIDs := make([]string, n)
	for i := range jobIDs {
		jobIDs[i] = "job-" + strconv.Itoa(100000+i)
	}
	traces := make([]*Trace, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range traces {
		traces[i] = floodShaped(clock.Real{}, jobIDs[i], i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / n
	runtime.KeepAlive(traces)
	runtime.KeepAlive(jobIDs)
	t.Logf("a finished flood-shaped trace retains %.0f B", per)
	if per > 768 {
		t.Fatalf("a finished flood-shaped trace retains %.0f B, want at most 768", per)
	}
}

func BenchmarkFloodTraceBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		floodShaped(clock.Real{}, "job-000001", i)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	tr := floodShaped(clock.Real{}, "job-000001", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Snapshot()
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	tr := floodShaped(clock.Real{}, "job-000001", 1)
	buf := tr.AppendJSON(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = tr.AppendJSON(buf[:0])
	}
}

// TestConcurrentRecordAndRead records spans from several goroutines while
// others encode and snapshot the trace; run under -race.
func TestConcurrentRecordAndRead(t *testing.T) {
	tr := New("job", nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartSpan("worker"+strconv.Itoa(g), Attr{Key: "i", Value: strconv.Itoa(i)})
				sp.Annotate("g", strconv.Itoa(g))
				sp.End()
				tr.Root().Annotate("last", strconv.Itoa(i))
			}
		}(g)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 50; i++ {
				buf = tr.AppendJSON(buf[:0])
				if !json.Valid(buf) {
					t.Errorf("invalid JSON: %s", buf)
					return
				}
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.Snapshot().Children); got != 200 {
		t.Fatalf("recorded %d spans, want 200", got)
	}
}
