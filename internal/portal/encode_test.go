package portal

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestAppendJobParity pins appendJob to the jobJSON struct it replaces: both
// renderings must decode to identical JSON values, and the omission rules
// (failure, nodes) must match byte-for-byte.
func TestAppendJobParity(t *testing.T) {
	base := time.Date(2026, 8, 8, 10, 30, 0, 123456789, time.UTC)
	snaps := []jobs.Snapshot{
		{
			ID:   "job-1",
			Spec: jobs.Spec{Owner: "ana", SourcePath: "/hello.mc", Language: "minic", Ranks: 4},
			// queued: zero Started/Finished, no failure, no nodes
			State: jobs.StateQueued, Submitted: base,
		},
		{
			ID:    "job-2",
			Spec:  jobs.Spec{Owner: "bo", SourcePath: "/π <&>.mc", Language: "minic", Ranks: 2},
			State: jobs.StateRunning, Submitted: base, Started: base.Add(time.Second),
			Nodes: []topology.NodeID{{Segment: 0, Index: 3}, {Segment: 1, Index: 12}},
		},
		{
			ID:    "job-3",
			Spec:  jobs.Spec{Owner: "cy", SourcePath: "/x.mc", Language: "minic", Ranks: 1},
			State: jobs.StateFailed, Submitted: base, Started: base, Finished: base.Add(time.Minute),
			Failure: `compile error: "unexpected token"`,
		},
	}
	for _, snap := range snaps {
		want, err := json.Marshal(toJobJSON(snap))
		if err != nil {
			t.Fatal(err)
		}
		got := appendJob(nil, &snap)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJob(%s):\n got %s\nwant %s", snap.ID, got, want)
		}
	}
}

// TestAppendOutputFrameParity pins the hand-rolled SSE frame to what
// writeSSE produces for the same sseOutputEvent.
func TestAppendOutputFrameParity(t *testing.T) {
	data := []byte("line one\nline <two> & \xff end")
	var want bytes.Buffer
	if err := writeSSE(&want, "output", 42, sseOutputEvent{
		Seq: 42, Stream: "stdout", Data: string(data), Dropped: 7,
	}); err != nil {
		t.Fatal(err)
	}
	got := appendOutputFrame(nil, 42, data, 7)
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("appendOutputFrame:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestQueryParam pins the zero-alloc query getter to url.Values semantics
// for the shapes the API uses, including the escaped fallback.
func TestQueryParam(t *testing.T) {
	cases := []string{
		"limit=8&state=queued&cursor=job-17",
		"state=queued",
		"stat=short&state=long", // key-prefix collision
		"all=1&wait=",
		"cursor=a%2Fb&path=with+space",
		"",
		"limit",           // no '='
		"&&limit=3&&",     // empty pairs
		"limit=1&limit=2", // first wins, like Values.Get
	}
	keys := []string{"limit", "state", "cursor", "all", "wait", "path", "stat", "missing"}
	for _, raw := range cases {
		r := httptest.NewRequest("GET", "/api/jobs?"+raw, nil)
		for _, k := range keys {
			if got, want := queryParam(r, k), r.URL.Query().Get(k); got != want {
				t.Errorf("queryParam(%q, %q) = %q, want %q", raw, k, got, want)
			}
		}
	}
}

// TestContentLengthSet verifies every JSON response carries an exact
// Content-Length — both encoder-path and hand-encoded responses.
func TestContentLengthSet(t *testing.T) {
	srv, token := benchServer(t)
	for _, target := range []string{"/api/languages", "/api/jobs?limit=5", "/api/whoami", "/api/cluster/stats"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, benchRequest("GET", target, token, ""))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body.String())
		}
		cl := rec.Header().Get("Content-Length")
		if cl == "" {
			t.Fatalf("GET %s: no Content-Length", target)
		}
		if n, _ := strconv.Atoi(cl); n != rec.Body.Len() {
			t.Fatalf("GET %s: Content-Length %s != body %d", target, cl, rec.Body.Len())
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Fatalf("GET %s: Content-Type = %q", target, got)
		}
	}
}

// TestWriteJSONEncodeFailure verifies the satellite fix: an Encode error is
// surfaced as a 500 envelope instead of a silently empty 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	srv, _ := benchServer(t)
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]interface{}{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body not an error envelope: %s", rec.Body.String())
	}
	if env.Error.Code != CodeInternal {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeInternal)
	}
}

// --- allocation regression gates -------------------------------------------
//
// These are the hard floor under the zero-alloc work: if a change puts
// steady-state allocations back on a hot GET path, make check fails, not
// just a benchmark number nobody compares.

// TestAllocsLanguages gates the full ServeHTTP path of GET /api/languages at
// zero steady-state allocations.
func TestAllocsLanguages(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	srv, token := benchServer(t)
	req := benchRequest("GET", "/api/languages", token, "")
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if allocs != 0 {
		t.Fatalf("GET /api/languages allocates %v/op, want 0", allocs)
	}
}

// TestAllocsJobList gates the full ServeHTTP path of a GET /api/jobs page at
// zero steady-state allocations.
func TestAllocsJobList(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	srv, token := benchServer(t)
	for i := 0; i < 8; i++ {
		if _, err := srv.Jobs.Submit(jobs.Spec{Owner: "bench", SourcePath: "/p.mc", Language: "minic", Ranks: 1}); err != nil {
			t.Fatal(err)
		}
	}
	req := benchRequest("GET", "/api/jobs?limit=8", token, "")
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if allocs != 0 {
		t.Fatalf("GET /api/jobs page allocates %v/op, want 0", allocs)
	}
}

// TestAllocsJobGet gates the handler+encode path of GET /api/jobs/{id} at
// zero allocations. The handler is invoked directly with the path value
// pre-set: the one remaining full-path allocation is the mux's wildcard
// capture slice, which belongs to net/http, not to this package.
func TestAllocsJobGet(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	srv, token := benchServer(t)
	job, err := srv.Jobs.Submit(jobs.Spec{Owner: "bench", SourcePath: "/p.mc", Language: "minic", Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Auth.Lookup(token)
	if err != nil {
		t.Fatal(err)
	}
	req := benchRequest("GET", "/api/jobs/"+job.ID, token, "")
	req.SetPathValue("id", job.ID)
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.handleJobGet(rec, req, sess)
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if allocs != 0 {
		t.Fatalf("job get handler+encode allocates %v/op, want 0", allocs)
	}
}

// traceResponse is the GET /api/jobs/{id}/trace document as the handler
// built it for encoding/json before it encoded straight from the trace's
// log; the parity test renders it as the reference.
type traceResponse struct {
	ID    string      `json:"id"`
	State string      `json:"state"`
	Trace interface{} `json:"trace"`
}

// floodShapedJob records a finished one-line job the way the pipeline does
// (submit, request ID, allocation, dispatch, a cached compile, the state
// spans, the terminal transition and the release after it) without running
// it: 8 spans and 13 attributes.
func floodShapedJob(tb testing.TB, srv *Server) *jobs.Job {
	tb.Helper()
	job, err := srv.Jobs.Submit(jobs.Spec{Owner: "bench", SourcePath: "/p.mc", Language: "minic", Ranks: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tr := job.Trace()
	tr.Root().Annotate("request_id", "req-4f9c21ab")
	if err := srv.Cluster.AllocateNodesTraced(tr, job.ID, []topology.NodeID{{Segment: 0, Index: 3}}); err != nil {
		tb.Fatal(err)
	}
	tr.StartSpan("dispatch", trace.Attr{Key: "policy", Value: "pack"}).End()
	for _, st := range []jobs.State{jobs.StateCompiling, jobs.StateRunning, jobs.StateSucceeded} {
		if st == jobs.StateRunning {
			sp := tr.StartSpan("compile", trace.Attr{Key: "language", Value: "minic"})
			sp.Annotate("cached", "true")
			sp.Annotate("artifact", "art-000001")
			sp.End()
		}
		if err := srv.Jobs.Transition(job.ID, st, ""); err != nil {
			tb.Fatal(err)
		}
	}
	srv.Cluster.ReleaseTraced(tr, job.ID)
	return job
}

// TestJobTraceParity pins GET /api/jobs/{id}/trace to encoding/json of the
// response it used to build from Snapshot, byte for byte, for every shape a
// job's trace takes.
func TestJobTraceParity(t *testing.T) {
	srv, token := benchServer(t)
	submit := func(sp jobs.Spec) *jobs.Job {
		job, err := srv.Jobs.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	base := jobs.Spec{Owner: "bench", SourcePath: "/p.mc", Language: "minic", Ranks: 1}
	cases := map[string]*jobs.Job{}
	cases["open"] = submit(base)
	cases["finished"] = floodShapedJob(t, srv)

	cancelled := submit(base)
	if err := srv.Jobs.Transition(cancelled.ID, jobs.StateCancelled, "cancelled by user"); err != nil {
		t.Fatal(err)
	}
	cases["cancelled"] = cancelled

	err := srv.Jobs.Restore([]jobs.PersistedJob{
		{ID: "job-900001", Spec: base, State: "succeeded", Submitted: time.Now()},
		{ID: "job-900002", Spec: base, State: "running", Submitted: time.Now()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-900001", "job-900002"} {
		if cases["restored-"+id], err = srv.Jobs.Get(id); err != nil {
			t.Fatal(err)
		}
	}

	large := submit(base)
	for i := 0; i < 10; i++ {
		sp := large.Trace().StartSpan("rank"+strconv.Itoa(i), trace.Attr{Key: "steps", Value: strconv.Itoa(i * 997)})
		sp.Annotate("sent", strconv.Itoa(i))
		sp.End()
	}
	cases["large"] = large

	repeated := submit(base)
	repeated.Trace().Root().Annotate("owner", "mallory")
	repeated.Trace().Root().Annotate("ranks", "2")
	cases["repeated-key"] = repeated

	escaped := submit(jobs.Spec{Owner: "bench", SourcePath: "/dir \"q\"/<a>&b\u2028\xff.mc", Language: "minic", Ranks: 1})
	if err := srv.Jobs.Transition(escaped.ID, jobs.StateFailed, "compile failed:\n  \"x\" <y> & z\u2028\xfe"); err != nil {
		t.Fatal(err)
	}
	cases["escaping"] = escaped

	for name, job := range cases {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, benchRequest("GET", "/api/jobs/"+job.ID+"/trace", token, ""))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", name, rec.Code, rec.Body.String())
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(traceResponse{
			ID: job.ID, State: job.State().String(), Trace: job.Trace().Snapshot(),
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", name, rec.Body.Bytes(), want.Bytes())
		}
	}
}

// TestAllocsJobTrace gates the handler+encode path of GET
// /api/jobs/{id}/trace for a finished flood-shaped job at zero allocations,
// invoked directly as TestAllocsJobGet invokes its handler.
func TestAllocsJobTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	srv, token := benchServer(t)
	job := floodShapedJob(t, srv)
	sess, err := srv.Auth.Lookup(token)
	if err != nil {
		t.Fatal(err)
	}
	req := benchRequest("GET", "/api/jobs/"+job.ID+"/trace", token, "")
	req.SetPathValue("id", job.ID)
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.handleJobTrace(rec, req, sess)
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if allocs != 0 {
		t.Fatalf("job trace handler+encode allocates %v/op, want 0", allocs)
	}
}
