package portal

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
)

// envelope decodes the error envelope out of a response body, failing the
// test if the body is not enveloped.
func envelope(t *testing.T, body []byte) (code, message, requestID string) {
	t.Helper()
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("response is not an error envelope: %s", body)
	}
	return env.Error.Code, env.Error.Message, env.Error.RequestID
}

func TestErrorEnvelopeMapping(t *testing.T) {
	s := newStack(t)
	alice := s.register(t, "alice", "secret1")
	eve := s.register(t, "evelyn", "secret2")
	alice.do("PUT", "/api/files/content?path=/ok.mc", "func main() { }")
	jobID, _ := submitAndWait(t, alice, map[string]interface{}{"source_path": "/ok.mc"})
	anon := &client{t: t, base: s.srv.URL}

	cases := []struct {
		name       string
		c          *client
		method     string
		path       string
		body       interface{}
		wantStatus int
		wantCode   string
	}{
		{"no session", anon, "GET", "/api/whoami", nil, http.StatusUnauthorized, "unauthorized"},
		{"bad credentials", anon, "POST", "/api/login",
			map[string]string{"user": "alice", "password": "wrong"}, http.StatusUnauthorized, "unauthorized"},
		{"duplicate user", anon, "POST", "/api/register",
			map[string]string{"user": "alice", "password": "whatever1"}, http.StatusConflict, "already_exists"},
		{"malformed body", alice, "POST", "/api/files/mkdir", "{not json", http.StatusBadRequest, "invalid_argument"},
		{"missing file", alice, "GET", "/api/files/content?path=/nope.mc", nil, http.StatusNotFound, "not_found"},
		{"unknown job", alice, "GET", "/api/jobs/job-999999", nil, http.StatusNotFound, "not_found"},
		{"foreign job", eve, "GET", "/api/jobs/" + jobID, nil, http.StatusForbidden, "forbidden"},
		{"foreign job trace", eve, "GET", "/api/jobs/" + jobID + "/trace", nil, http.StatusForbidden, "forbidden"},
		{"input after terminal", alice, "POST", "/api/jobs/" + jobID + "/input",
			map[string]string{"data": "x"}, http.StatusConflict, "job_terminal"},
		{"cancel terminal job", alice, "POST", "/api/jobs/" + jobID + "/cancel", nil, http.StatusConflict, "job_terminal"},
		{"bad pagination cursor", alice, "GET", "/api/jobs?cursor=job-999999", nil, http.StatusBadRequest, "invalid_argument"},
		{"bad pagination limit", alice, "GET", "/api/jobs?limit=0", nil, http.StatusBadRequest, "invalid_argument"},
		{"bad state filter", alice, "GET", "/api/jobs?state=bogus", nil, http.StatusBadRequest, "invalid_argument"},
		{"undetectable language", alice, "POST", "/api/compile",
			map[string]string{"path": "/ok.mc", "language": "cobol"}, http.StatusBadRequest, "invalid_argument"},
		{"admin endpoint as student", alice, "POST", "/api/cluster/nodes/s0n00/down", nil, http.StatusForbidden, "forbidden"},
		{"bad node id", s.registerAdmin(t), "POST", "/api/cluster/nodes/xyz/down", nil, http.StatusBadRequest, "invalid_argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := tc.c.do(tc.method, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", status, tc.wantStatus, body)
			}
			code, msg, _ := envelope(t, body)
			if code != tc.wantCode {
				t.Fatalf("code = %q, want %q (%s)", code, tc.wantCode, body)
			}
			if msg == "" {
				t.Fatal("envelope message is empty")
			}
		})
	}
}

// registerAdmin creates an admin account directly on the auth service and
// logs in through the API.
func (s *stack) registerAdmin(t *testing.T) *client {
	t.Helper()
	if _, err := s.authz.Register("admin1", "adminpw1", auth.RoleAdmin); err != nil &&
		!strings.Contains(err.Error(), "exists") {
		t.Fatal(err)
	}
	c := &client{t: t, base: s.srv.URL}
	var resp struct {
		Token string `json:"token"`
	}
	status, body := c.do("POST", "/api/login", map[string]string{"user": "admin1", "password": "adminpw1"})
	if status != http.StatusOK {
		t.Fatalf("admin login = %d %s", status, body)
	}
	json.Unmarshal(body, &resp)
	c.token = resp.Token
	return c
}

func TestRequestIDEchoAndGeneration(t *testing.T) {
	s := newStack(t)

	// A client-supplied ID is echoed on the response and inside the envelope.
	req, _ := http.NewRequest("GET", s.srv.URL+"/api/whoami", nil)
	req.Header.Set("X-Request-ID", "ticket-1234")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if got := res.Header.Get("X-Request-ID"); got != "ticket-1234" {
		t.Fatalf("echoed id = %q", got)
	}
	_, _, rid := envelope(t, body)
	if rid != "ticket-1234" {
		t.Fatalf("envelope request_id = %q, want ticket-1234", rid)
	}

	// Without one, the portal assigns a req- ID.
	res2, err := http.Get(s.srv.URL + "/api/whoami")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(res2.Body)
	res2.Body.Close()
	gen := res2.Header.Get("X-Request-ID")
	if !strings.HasPrefix(gen, "req-") {
		t.Fatalf("generated id = %q, want req- prefix", gen)
	}
	if _, _, rid := envelope(t, body2); rid != gen {
		t.Fatalf("envelope rid %q != header rid %q", rid, gen)
	}

	// Garbage IDs (spaces would corrupt the access log) are replaced.
	req3, _ := http.NewRequest("GET", s.srv.URL+"/api/whoami", nil)
	req3.Header.Set("X-Request-ID", "two words")
	res3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res3.Body)
	res3.Body.Close()
	if got := res3.Header.Get("X-Request-ID"); got == "two words" || !strings.HasPrefix(got, "req-") {
		t.Fatalf("sanitized id = %q", got)
	}
}

func TestJobListPaginationViaAPI(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/p.mc", "func main() { }")
	ids := make([]string, 5)
	for i := range ids {
		id, state := submitAndWait(t, c, map[string]interface{}{"source_path": "/p.mc"})
		if state != "succeeded" {
			t.Fatalf("job %d state = %s", i, state)
		}
		ids[i] = id
	}

	var page struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
		NextCursor string `json:"next_cursor"`
	}
	if st := c.getJSON("/api/jobs?limit=2", &page); st != http.StatusOK {
		t.Fatalf("page 1 = %d", st)
	}
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[4] || page.Jobs[1].ID != ids[3] {
		t.Fatalf("page 1 = %+v", page)
	}
	if page.NextCursor != ids[3] {
		t.Fatalf("next_cursor = %q, want %q", page.NextCursor, ids[3])
	}

	// Follow the cursor to the end.
	seen := []string{page.Jobs[0].ID, page.Jobs[1].ID}
	for page.NextCursor != "" {
		if st := c.getJSON("/api/jobs?limit=2&cursor="+page.NextCursor, &page); st != http.StatusOK {
			t.Fatalf("follow page = %d", st)
		}
		for _, j := range page.Jobs {
			seen = append(seen, j.ID)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("paged through %d jobs, want 5: %v", len(seen), seen)
	}

	// Cursor at the oldest job: empty page, no next cursor, still 200.
	if st := c.getJSON("/api/jobs?cursor="+ids[0], &page); st != http.StatusOK {
		t.Fatalf("past-end page = %d", st)
	}
	if len(page.Jobs) != 0 || page.NextCursor != "" {
		t.Fatalf("past-end page = %+v", page)
	}

	// State filter composes with pagination.
	if st := c.getJSON("/api/jobs?state=succeeded&limit=3", &page); st != http.StatusOK {
		t.Fatalf("state page = %d", st)
	}
	if len(page.Jobs) != 3 || page.NextCursor == "" {
		t.Fatalf("state page = %+v", page)
	}
	if st := c.getJSON("/api/jobs?state=queued", &page); st != http.StatusOK {
		t.Fatalf("queued page = %d", st)
	}
	if len(page.Jobs) != 0 {
		t.Fatalf("queued jobs = %+v", page.Jobs)
	}
}

func TestJobTraceLifecycleViaAPI(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/t.mc", "func main() { println(42); }")

	// Submit with a request ID so it lands in the trace root.
	reqBody, _ := json.Marshal(map[string]interface{}{"source_path": "/t.mc", "ranks": 2})
	req, _ := http.NewRequest("POST", s.srv.URL+"/api/jobs", strings.NewReader(string(reqBody)))
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("X-Request-ID", "trace-test-1")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	submitBody, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", res.StatusCode, submitBody)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal(submitBody, &job)
	if _, err := s.store.WaitTerminal(job.ID, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	var tr struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Trace struct {
			Name       string            `json:"name"`
			DurationUS int64             `json:"duration_us"`
			Attrs      map[string]string `json:"attrs"`
			Children   []struct {
				Name       string            `json:"name"`
				DurationUS int64             `json:"duration_us"`
				Attrs      map[string]string `json:"attrs"`
			} `json:"children"`
		} `json:"trace"`
	}
	if st := c.getJSON("/api/jobs/"+job.ID+"/trace", &tr); st != http.StatusOK {
		t.Fatalf("trace = %d", st)
	}
	if tr.ID != job.ID || tr.State != "succeeded" {
		t.Fatalf("trace header = %+v", tr)
	}
	root := tr.Trace
	if root.Name != "job" || root.DurationUS < 0 {
		t.Fatalf("root = %+v", root)
	}
	if root.Attrs["job_id"] != job.ID || root.Attrs["owner"] != "alice" ||
		root.Attrs["state"] != "succeeded" || root.Attrs["ranks"] != "2" {
		t.Fatalf("root attrs = %v", root.Attrs)
	}
	if root.Attrs["request_id"] != "trace-test-1" {
		t.Fatalf("request_id attr = %q", root.Attrs["request_id"])
	}

	// The lifecycle spans appear in order, all closed.
	idx := map[string]int{}
	for i, child := range root.Children {
		if child.DurationUS < 0 {
			t.Fatalf("span %s left open: %+v", child.Name, child)
		}
		if _, dup := idx[child.Name]; !dup {
			idx[child.Name] = i
		}
	}
	for _, name := range []string{"queued", "allocate", "dispatch", "compile", "running", "release"} {
		if _, ok := idx[name]; !ok {
			t.Fatalf("trace missing %q span; children = %+v", name, root.Children)
		}
	}
	if !(idx["queued"] < idx["dispatch"] && idx["dispatch"] < idx["running"] && idx["running"] < idx["release"]) {
		t.Fatalf("span order wrong: %v", idx)
	}
	if got := root.Children[idx["compile"]].Attrs["language"]; got == "" {
		t.Fatalf("compile span attrs = %v", root.Children[idx["compile"]].Attrs)
	}
}

func TestPrometheusEndpoint(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/m.mc", "func main() { }")
	if _, state := submitAndWait(t, c, map[string]interface{}{"source_path": "/m.mc"}); state != "succeeded" {
		t.Fatalf("job state = %s", state)
	}

	res, err := http.Get(s.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(res.Body)
	out := string(body)
	wants := []string{
		"# TYPE http_request_seconds histogram",
		"# TYPE job_queue_wait_seconds histogram",
		"# TYPE job_compile_seconds histogram",
		"# TYPE job_run_seconds histogram",
		`http_request_seconds_bucket{route="PUT /api/files/content",le=`,
		"job_run_seconds_count 1",
		"# TYPE jobs_submitted_total counter",
		"# TYPE go_gc_cycles gauge",
		"# TYPE go_heap_live_bytes gauge",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%.2000s", want, out)
		}
	}
}

func TestCompileFailureEnvelopeCarriesDiagnostics(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/bad.mc", "func main() { var x = ; }")
	status, body := c.do("POST", "/api/compile", map[string]string{"path": "/bad.mc"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("compile = %d %s", status, body)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Details struct {
				Diagnostics []string `json:"diagnostics"`
			} `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "compile_failed" || len(env.Error.Details.Diagnostics) == 0 {
		t.Fatalf("envelope = %s", body)
	}
	var probe interface{}
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%T", probe) != "map[string]interface {}" {
		t.Fatalf("body shape = %T", probe)
	}
}
