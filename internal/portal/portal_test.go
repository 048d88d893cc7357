package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

// stack is a full in-process portal for tests.
type stack struct {
	srv    *httptest.Server
	server *Server
	sched  *scheduler.Scheduler
	store  *jobs.Store
	authz  *auth.Service
	clus   *cluster.Cluster
	fs     *vfs.FS
}

func newStack(t *testing.T) *stack { return newStackDispatch(t, true) }

// newStackDispatch builds the stack; dispatch=false leaves the scheduler
// idle so a test can submit jobs and drive their streams by hand without
// the dispatcher racing it to a compile failure.
func newStackDispatch(t *testing.T, dispatch bool) *stack {
	t.Helper()
	sim := clock.NewSim()
	cfg := config.Default()
	clus, err := cluster.New(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	tools := toolchain.NewService(sim)
	store := jobs.NewStore(64, sim)
	fs := vfs.New(1<<24, sim)
	authz := auth.NewService(time.Hour, clock.Real{}) // real clock: sessions live through the test
	// Share one registry between store, scheduler and portal, as
	// core.NewSystem does, so /metrics carries the job histograms next to
	// the HTTP ones.
	reg := metrics.NewRegistry()
	store.SetMetrics(reg)
	sched := scheduler.New(clus, tools, store, fs, scheduler.Options{
		WallTime:   30 * time.Second,
		StepBudget: 1 << 40, // cancellation tests spin; the budget must not end them first
		Metrics:    reg,
	})
	if dispatch {
		sched.Start(time.Millisecond)
		t.Cleanup(sched.Stop)
	}
	server := NewServer(authz, fs, tools, store, sched, clus, logging.Discard(), 1<<20)
	server.SetMetrics(reg)
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	return &stack{srv: ts, server: server, sched: sched, store: store, authz: authz, clus: clus, fs: fs}
}

// client is a minimal API client holding a bearer token.
type client struct {
	t     *testing.T
	base  string
	token string
}

func (s *stack) register(t *testing.T, user, pass string) *client {
	t.Helper()
	c := &client{t: t, base: s.srv.URL}
	status, _ := c.do("POST", "/api/register", map[string]string{"user": user, "password": pass})
	if status != http.StatusCreated {
		t.Fatalf("register status = %d", status)
	}
	var resp struct {
		Token string `json:"token"`
	}
	status, body := c.do("POST", "/api/login", map[string]string{"user": user, "password": pass})
	if status != http.StatusOK {
		t.Fatalf("login status = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	c.token = resp.Token
	return c
}

func (c *client) do(method, path string, body interface{}) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		switch b := body.(type) {
		case string:
			rd = strings.NewReader(b)
		case []byte:
			rd = bytes.NewReader(b)
		default:
			j, err := json.Marshal(body)
			if err != nil {
				c.t.Fatal(err)
			}
			rd = bytes.NewReader(j)
		}
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return res.StatusCode, data
}

func (c *client) getJSON(path string, v interface{}) int {
	c.t.Helper()
	status, body := c.do("GET", path, nil)
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			c.t.Fatalf("decoding %s: %v (%s)", path, err, body)
		}
	}
	return status
}

func TestIndexPage(t *testing.T) {
	s := newStack(t)
	res, err := http.Get(s.srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), "Cluster Computing Portal") {
		t.Fatalf("index: %d %q", res.StatusCode, body[:min(80, len(body))])
	}
	// The job monitor follows output over the SSE watch API, the one
	// output contract; it never polls.
	if page := string(body); !strings.Contains(page, "new EventSource('/api/jobs/' + currentJob + '/events')") ||
		strings.Contains(page, "/output") {
		t.Fatal("index page does not watch job output through EventSource on /events")
	}
	// Unknown paths 404.
	res2, _ := http.Get(s.srv.URL + "/nope")
	if res2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", res2.StatusCode)
	}
	res2.Body.Close()
}

func TestAuthRequired(t *testing.T) {
	s := newStack(t)
	c := &client{t: t, base: s.srv.URL}
	status, _ := c.do("GET", "/api/whoami", nil)
	if status != http.StatusUnauthorized {
		t.Fatalf("whoami without session = %d", status)
	}
	c.token = "sess-bogus"
	status, _ = c.do("GET", "/api/files", nil)
	if status != http.StatusUnauthorized {
		t.Fatalf("bogus token = %d", status)
	}
}

func TestRegisterLoginWhoamiLogout(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	var who struct{ User, Role string }
	if st := c.getJSON("/api/whoami", &who); st != http.StatusOK {
		t.Fatalf("whoami = %d", st)
	}
	if who.User != "alice" || who.Role != "student" {
		t.Fatalf("whoami = %+v", who)
	}
	status, _ := c.do("POST", "/api/logout", nil)
	if status != http.StatusOK {
		t.Fatalf("logout = %d", status)
	}
	if st := c.getJSON("/api/whoami", nil); st != http.StatusUnauthorized {
		t.Fatalf("whoami after logout = %d", st)
	}
}

func TestBadLogin(t *testing.T) {
	s := newStack(t)
	s.register(t, "alice", "secret1")
	c := &client{t: t, base: s.srv.URL}
	status, _ := c.do("POST", "/api/login", map[string]string{"user": "alice", "password": "wrong"})
	if status != http.StatusUnauthorized {
		t.Fatalf("bad login = %d", status)
	}
	status, _ = c.do("POST", "/api/login", "{not json")
	if status != http.StatusBadRequest {
		t.Fatalf("garbage body = %d", status)
	}
}

func TestFileManagerRoundTrip(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")

	// Upload creates parents.
	status, _ := c.do("PUT", "/api/files/content?path=/src/hello.mc", "func main() { }")
	if status != http.StatusCreated {
		t.Fatalf("upload = %d", status)
	}
	// Download round-trips.
	status, body := c.do("GET", "/api/files/content?path=/src/hello.mc", nil)
	if status != http.StatusOK || string(body) != "func main() { }" {
		t.Fatalf("download = %d %q", status, body)
	}
	// List shows the directory.
	var listing []struct {
		Name string `json:"name"`
		Dir  bool   `json:"dir"`
	}
	if st := c.getJSON("/api/files?path=/", &listing); st != http.StatusOK {
		t.Fatalf("list = %d", st)
	}
	if len(listing) != 1 || listing[0].Name != "src" || !listing[0].Dir {
		t.Fatalf("listing = %+v", listing)
	}
	// Copy, rename, delete.
	if st, _ := c.do("POST", "/api/files/copy", map[string]string{"src": "/src/hello.mc", "dst": "/src/copy.mc"}); st != http.StatusOK {
		t.Fatalf("copy = %d", st)
	}
	if st, _ := c.do("POST", "/api/files/rename", map[string]string{"src": "/src/copy.mc", "dst": "/src/renamed.mc"}); st != http.StatusOK {
		t.Fatalf("rename = %d", st)
	}
	if st, _ := c.do("POST", "/api/files/delete", map[string]interface{}{"path": "/src", "recursive": true}); st != http.StatusOK {
		t.Fatalf("delete = %d", st)
	}
	if st := c.getJSON("/api/files?path=/src", nil); st != http.StatusNotFound {
		t.Fatalf("list after delete = %d", st)
	}
	// mkdir endpoint.
	if st, _ := c.do("POST", "/api/files/mkdir", map[string]string{"path": "/a/b/c"}); st != http.StatusCreated {
		t.Fatalf("mkdir = %d", st)
	}
}

func TestFileErrorsMapToStatuses(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	if st := c.getJSON("/api/files/content?path=/ghost", nil); st != http.StatusNotFound {
		t.Fatalf("missing file = %d", st)
	}
	if st, _ := c.do("PUT", "/api/files/content", "x"); st != http.StatusBadRequest {
		t.Fatalf("missing path param = %d", st)
	}
	c.do("PUT", "/api/files/content?path=/f", "x")
	if st, _ := c.do("POST", "/api/files/copy", map[string]string{"src": "/f", "dst": "/f"}); st != http.StatusBadRequest {
		t.Fatalf("self copy = %d", st)
	}
}

func TestUsersAreIsolated(t *testing.T) {
	s := newStack(t)
	alice := s.register(t, "alice", "secret1")
	bob := s.register(t, "bobby", "secret2")
	alice.do("PUT", "/api/files/content?path=/private.mc", "alice's file")
	if st := bob.getJSON("/api/files/content?path=/private.mc", nil); st != http.StatusNotFound {
		t.Fatalf("bob sees alice's file: %d", st)
	}
}

func TestCompileEndpoint(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/ok.mc", "func main() { println(1); }")
	var res struct {
		OK       bool   `json:"ok"`
		Artifact string `json:"artifact"`
	}
	status, body := c.do("POST", "/api/compile", map[string]string{"path": "/ok.mc"})
	if status != http.StatusOK {
		t.Fatalf("compile = %d %s", status, body)
	}
	json.Unmarshal(body, &res)
	if !res.OK || !strings.HasPrefix(res.Artifact, "art-") {
		t.Fatalf("compile result = %+v", res)
	}

	c.do("PUT", "/api/files/content?path=/bad.mc", "func main() { var x = ; }")
	status, body = c.do("POST", "/api/compile", map[string]string{"path": "/bad.mc"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad compile = %d %s", status, body)
	}
	var bad struct {
		Error struct {
			Code    string `json:"code"`
			Details struct {
				Diagnostics []string `json:"diagnostics"`
			} `json:"details"`
		} `json:"error"`
	}
	json.Unmarshal(body, &bad)
	if bad.Error.Code != "compile_failed" || len(bad.Error.Details.Diagnostics) == 0 {
		t.Fatalf("compile error envelope = %+v (%s)", bad, body)
	}

	// Unknown extension without explicit language.
	c.do("PUT", "/api/files/content?path=/mystery.zzz", "x")
	if st, _ := c.do("POST", "/api/compile", map[string]string{"path": "/mystery.zzz"}); st != http.StatusBadRequest {
		t.Fatalf("undetectable language = %d", st)
	}
}

func TestLanguagesEndpoint(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	var langs []string
	if st := c.getJSON("/api/languages", &langs); st != http.StatusOK {
		t.Fatalf("languages = %d", st)
	}
	if strings.Join(langs, ",") != "c,cpp,java,minic" {
		t.Fatalf("langs = %v", langs)
	}
}

// submitAndWait submits a job and polls until it is terminal.
func submitAndWait(t *testing.T, c *client, body map[string]interface{}) (jobID, state string) {
	t.Helper()
	status, resp := c.do("POST", "/api/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, resp)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal(resp, &job)
	deadline := time.Now().Add(15 * time.Second)
	for {
		var snap struct {
			State string `json:"state"`
		}
		c.getJSON("/api/jobs/"+job.ID, &snap)
		switch snap.State {
		case "succeeded", "failed", "cancelled":
			return job.ID, snap.State
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", job.ID, snap.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEndToEndJob(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/hello.mc", `func main() { println("via portal"); }`)
	id, state := submitAndWait(t, c, map[string]interface{}{"source_path": "/hello.mc"})
	if state != "succeeded" {
		t.Fatalf("job state = %s", state)
	}
	_, r := openEvents(t, s, c, id, "", nil)
	if out, final := r.drain(); out != "via portal\n" || final != "succeeded" {
		t.Fatalf("output = %q, done state = %s", out, final)
	}
}

func TestEndToEndParallelJob(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/par.mc", `
func main() {
	var total = reduce_sum(1);
	if (rank() == 0) { println("ranks:", total); }
}`)
	id, state := submitAndWait(t, c, map[string]interface{}{"source_path": "/par.mc", "ranks": 6})
	if state != "succeeded" {
		t.Fatalf("job state = %s", state)
	}
	_, r := openEvents(t, s, c, id, "", nil)
	if out, _ := r.drain(); !strings.Contains(out, "ranks: 6") {
		t.Fatalf("output = %q", out)
	}
}

func TestInteractiveInputViaAPI(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/echo.mc", `
func main() {
	println("ready");
	var line = readline();
	println("echo: " + line);
}`)
	status, resp := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/echo.mc"})
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal(resp, &job)
	// Watch until the program prints "ready" (it is then blocked on stdin).
	_, r := openEvents(t, s, c, job.ID, "", nil)
	r.readUntil("ready")
	if st, _ := c.do("POST", "/api/jobs/"+job.ID+"/input", map[string]string{"data": "hi there\n"}); st != http.StatusOK {
		t.Fatalf("input feed = %d", st)
	}
	if out, final := r.drain(); !strings.Contains(out, "echo: hi there") || final != "succeeded" {
		t.Fatalf("output = %q, done state = %s", out, final)
	}
	// Feeding a finished job conflicts.
	if st, _ := c.do("POST", "/api/jobs/"+job.ID+"/input", map[string]string{"data": "x"}); st != http.StatusConflict {
		t.Fatalf("late input = %d", st)
	}
}

func TestJobOwnershipEnforced(t *testing.T) {
	s := newStack(t)
	alice := s.register(t, "alice", "secret1")
	eve := s.register(t, "evelyn", "secret2")
	alice.do("PUT", "/api/files/content?path=/h.mc", "func main() { }")
	id, _ := submitAndWait(t, alice, map[string]interface{}{"source_path": "/h.mc"})
	if st := eve.getJSON("/api/jobs/"+id, nil); st != http.StatusForbidden {
		t.Fatalf("cross-user job get = %d", st)
	}
	if st := eve.getJSON("/api/jobs/"+id+"/events", nil); st != http.StatusForbidden {
		t.Fatalf("cross-user events = %d", st)
	}
	// Output is served only as the /events stream; the long-poll is gone.
	if st := alice.getJSON("/api/jobs/"+id+"/output", nil); st != http.StatusNotFound {
		t.Fatalf("long-poll output = %d, want 404", st)
	}
	// Unknown job is 404.
	if st := alice.getJSON("/api/jobs/job-999999", nil); st != http.StatusNotFound {
		t.Fatalf("unknown job = %d", st)
	}
}

func TestJobListFiltering(t *testing.T) {
	s := newStack(t)
	alice := s.register(t, "alice", "secret1")
	bob := s.register(t, "bobby", "secret2")
	alice.do("PUT", "/api/files/content?path=/h.mc", "func main() { }")
	bob.do("PUT", "/api/files/content?path=/h.mc", "func main() { }")
	submitAndWait(t, alice, map[string]interface{}{"source_path": "/h.mc"})
	submitAndWait(t, bob, map[string]interface{}{"source_path": "/h.mc"})

	var mine struct {
		Jobs []struct{ Owner string } `json:"jobs"`
	}
	alice.getJSON("/api/jobs", &mine)
	if len(mine.Jobs) != 1 || mine.Jobs[0].Owner != "alice" {
		t.Fatalf("alice's list = %+v", mine)
	}
	// A student asking for all still sees only their own.
	var all struct {
		Jobs []struct{ Owner string } `json:"jobs"`
	}
	alice.getJSON("/api/jobs?all=1", &all)
	if len(all.Jobs) != 1 {
		t.Fatalf("student all=1 list = %+v", all)
	}
	// Faculty see everything with all=1.
	s.authz.Register("prof", "teachme", auth.RoleFaculty)
	prof := &client{t: t, base: s.srv.URL}
	_, body := prof.do("POST", "/api/login", map[string]string{"user": "prof", "password": "teachme"})
	var lr struct{ Token string }
	json.Unmarshal(body, &lr)
	prof.token = lr.Token
	prof.getJSON("/api/jobs?all=1", &all)
	if len(all.Jobs) != 2 {
		t.Fatalf("faculty all=1 list = %+v", all)
	}
}

func TestCancelViaAPI(t *testing.T) {
	s := newStack(t)
	s.sched.Stop() // freeze dispatch so the job stays queued
	c := s.register(t, "alice", "secret1")
	c.do("PUT", "/api/files/content?path=/h.mc", "func main() { }")
	status, resp := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/h.mc"})
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal(resp, &job)
	if st, _ := c.do("POST", "/api/jobs/"+job.ID+"/cancel", nil); st != http.StatusOK {
		t.Fatalf("cancel = %d", st)
	}
	var snap struct{ State string }
	c.getJSON("/api/jobs/"+job.ID, &snap)
	if snap.State != "cancelled" {
		t.Fatalf("state = %s", snap.State)
	}
	if st, _ := c.do("POST", "/api/jobs/"+job.ID+"/cancel", nil); st != http.StatusConflict {
		t.Fatalf("double cancel = %d", st)
	}
}

// TestCancelRunningJobViaAPI is the end-to-end cancellation path: a spinning
// rank and a blocked MPI peer are halted by one POST, the nodes come back,
// and the metrics register the kill.
func TestCancelRunningJobViaAPI(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	// Rank 0 prints, then spins forever; rank 1 blocks in recv(0). Only
	// cancellation can end this program (the step budget is astronomical).
	c.do("PUT", "/api/files/content?path=/spin.mc", `
func main() {
	if (rank() == 0) {
		println("spinning");
		while (true) { }
	}
	var got = recv(0);
	println(got);
}`)
	status, resp := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/spin.mc", "ranks": 2})
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, resp)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal(resp, &job)
	// Wait until the program is demonstrably executing: rank 0 prints only
	// once the job runs.
	_, r := openEvents(t, s, c, job.ID, "", nil)
	r.readUntil("spinning")
	if st, _ := c.do("POST", "/api/jobs/"+job.ID+"/cancel", nil); st != http.StatusOK {
		t.Fatalf("cancel = %d", st)
	}
	if _, final := r.drain(); final != "cancelled" {
		t.Fatalf("done state = %s", final)
	}
	snap, err := s.store.WaitTerminal(job.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateCancelled || !strings.Contains(snap.Failure, "cancelled by user") {
		t.Fatalf("snap = %+v", snap)
	}
	// Both VM ranks must actually halt and release their nodes.
	deadline := time.Now().Add(10 * time.Second)
	for s.clus.FreeCount() != s.clus.Size() {
		if time.Now().After(deadline) {
			t.Fatalf("nodes not released: %d/%d free", s.clus.FreeCount(), s.clus.Size())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.sched.CancelledWhileRunning(); got != 1 {
		t.Fatalf("CancelledWhileRunning = %d", got)
	}
	var metrics map[string]interface{}
	if st := c.getJSON("/api/metrics", &metrics); st != http.StatusOK {
		t.Fatalf("metrics = %d", st)
	}
	if n, _ := metrics["scheduler_cancelled_running_total"].(float64); n != 1 {
		t.Fatalf("metrics = %v", metrics)
	}
}

func TestClusterEndpoints(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "alice", "secret1")
	var nodes []struct {
		ID    string `json:"id"`
		Cores int    `json:"cores"`
	}
	if st := c.getJSON("/api/cluster/nodes", &nodes); st != http.StatusOK {
		t.Fatalf("nodes = %d", st)
	}
	if len(nodes) != 64 || nodes[0].ID != "s0n00" {
		t.Fatalf("nodes = %d, first = %+v", len(nodes), nodes[0])
	}
	var stats struct {
		TotalNodes int            `json:"total_nodes"`
		FreeNodes  int            `json:"free_nodes"`
		Jobs       map[string]int `json:"jobs"`
	}
	if st := c.getJSON("/api/cluster/stats", &stats); st != http.StatusOK {
		t.Fatalf("stats = %d", st)
	}
	if stats.TotalNodes != 64 || stats.FreeNodes != 64 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCookieAuthWorks(t *testing.T) {
	s := newStack(t)
	s.register(t, "alice", "secret1")
	jar := &cookieClient{t: t, base: s.srv.URL}
	jar.post("/api/login", `{"user":"alice","password":"secret1"}`)
	res := jar.get("/api/whoami")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cookie whoami = %d", res.StatusCode)
	}
	res.Body.Close()
}

// cookieClient exercises the browser path (cookie-based sessions).
type cookieClient struct {
	t      *testing.T
	base   string
	cookie *http.Cookie
}

func (c *cookieClient) post(path, body string) {
	c.t.Helper()
	req, _ := http.NewRequest("POST", c.base+path, strings.NewReader(body))
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer res.Body.Close()
	for _, ck := range res.Cookies() {
		if ck.Name == SessionCookie {
			c.cookie = ck
		}
	}
	if c.cookie == nil {
		c.t.Fatal("no session cookie set")
	}
}

func (c *cookieClient) get(path string) *http.Response {
	c.t.Helper()
	req, _ := http.NewRequest("GET", c.base+path, nil)
	if c.cookie != nil {
		req.AddCookie(c.cookie)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
