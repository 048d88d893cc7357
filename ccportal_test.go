package ccportal

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/labs"
)

func newTestSystem(t *testing.T) (*System, *httptest.Server) {
	t.Helper()
	sys, err := New(DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	ts := httptest.NewServer(sys.Handler())
	t.Cleanup(ts.Close)
	return sys, ts
}

func loggedInClient(t *testing.T, ts *httptest.Server, user string) *Client {
	t.Helper()
	c := NewClient(ts.URL)
	if err := c.Register(user, "password1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Login(user, "password1"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultConfigIsPaperShaped(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cluster.Segments != 4 || cfg.Cluster.NodesPerSegment != 16 {
		t.Fatalf("shape = %d×%d", cfg.Cluster.Segments, cfg.Cluster.NodesPerSegment)
	}
}

func TestNewLogger(t *testing.T) {
	if _, err := NewLogger("info"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLogger("nonsense"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestClientFileLifecycle(t *testing.T) {
	_, ts := newTestSystem(t)
	c := loggedInClient(t, ts, "alice")

	if err := c.Upload("/src/main.mc", []byte("func main() { }")); err != nil {
		t.Fatal(err)
	}
	data, err := c.Download("/src/main.mc")
	if err != nil || string(data) != "func main() { }" {
		t.Fatalf("download = %q, %v", data, err)
	}
	if err := c.Copy("/src/main.mc", "/src/backup.mc"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/src/backup.mc", "/src/old.mc"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/archive"); err != nil {
		t.Fatal(err)
	}
	infos, err := c.List("/src")
	if err != nil || len(infos) != 2 {
		t.Fatalf("list = %+v, %v", infos, err)
	}
	if err := c.Remove("/src", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Download("/src/main.mc"); err == nil {
		t.Fatal("file survived removal")
	}
}

func TestClientCompile(t *testing.T) {
	_, ts := newTestSystem(t)
	c := loggedInClient(t, ts, "alice")
	c.Upload("/ok.mc", []byte("func main() { println(1); }"))
	res, err := c.Compile("/ok.mc", "minic")
	if err != nil || !res.OK || res.Artifact == "" {
		t.Fatalf("compile = %+v, %v", res, err)
	}
	c.Upload("/bad.mc", []byte("func main() { oops; }"))
	res, err = c.Compile("/bad.mc", "minic")
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || len(res.Diagnostics) == 0 {
		t.Fatalf("bad compile = %+v", res)
	}
}

func TestClientJobRoundTrip(t *testing.T) {
	_, ts := newTestSystem(t)
	c := loggedInClient(t, ts, "alice")
	c.Upload("/sum.mc", []byte(`
func main() {
	var total = 0;
	for (var i = 1; i <= 10; i = i + 1) { total = total + i; }
	println("total", total);
}`))
	job, err := c.Submit("/sum.mc", "minic", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	final, output, err := c.WaitJob(job.ID, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "succeeded" || !final.Terminal() {
		t.Fatalf("final = %+v", final)
	}
	if output != "total 55\n" {
		t.Fatalf("output = %q", output)
	}
	jobsList, err := c.Jobs()
	if err != nil || len(jobsList) != 1 {
		t.Fatalf("jobs = %+v, %v", jobsList, err)
	}
	stats, err := c.Stats()
	if err != nil || stats.TotalNodes != 64 || stats.Dispatched != 1 {
		t.Fatalf("stats = %+v, %v", stats, err)
	}
}

// TestClientWatch drives the SSE watch API end to end: submit a real job,
// follow its event stream with the iterator, and check the accumulated
// output matches what a plain read of the finished job returns.
func TestClientWatch(t *testing.T) {
	_, ts := newTestSystem(t)
	c := loggedInClient(t, ts, "alice")
	c.Upload("/count.mc", []byte(`
func main() {
	for (var i = 0; i < 5; i = i + 1) { println("line", i); }
}`))
	job, err := c.Submit("/count.mc", "minic", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	w, err := c.Watch(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var streamed strings.Builder
	state := ""
	for {
		ev, err := w.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Dropped > 0 {
			t.Fatalf("unexpected drop on a small stream: %+v", ev)
		}
		if ev.Done {
			state = ev.State
			break
		}
		streamed.WriteString(ev.Data)
	}
	if state != "succeeded" {
		t.Fatalf("terminal state = %q", state)
	}
	want := "line 0\nline 1\nline 2\nline 3\nline 4\n"
	if streamed.String() != want {
		t.Fatalf("streamed output = %q, want %q", streamed.String(), want)
	}
	// A second watch over the finished job replays the same bytes from the
	// retained ring — the catch-up path, with no live producer.
	w2, err := c.Watch(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var replayed strings.Builder
	for {
		ev, err := w2.Next()
		if err == io.EOF || (err == nil && ev.Done) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replayed.WriteString(ev.Data)
	}
	if replayed.String() != want {
		t.Fatalf("replayed output = %q, want %q", replayed.String(), want)
	}
}

// TestClientWaitJobTruncatedStream: an event stream that ends before its
// done frame is an error, not a finished job, even though the job record
// itself is readable.
func TestClientWaitJobTruncatedStream(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/jobs/job-000001/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: output\nid: 3\ndata: {\"seq\":3,\"stream\":\"stdout\",\"data\":\"hi\\n\",\"dropped\":0}\n\n")
	})
	mux.HandleFunc("GET /api/jobs/job-000001", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"id":"job-000001","state":"running"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	job, output, err := NewClient(srv.URL).WaitJob("job-000001", 5*time.Second)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("WaitJob = %+v, %v; want an error wrapping io.ErrUnexpectedEOF", job, err)
	}
	if output != "hi\n" {
		t.Fatalf("output = %q, want the bytes delivered before the cut", output)
	}
}

func TestClientParallelJobAndStdin(t *testing.T) {
	_, ts := newTestSystem(t)
	c := loggedInClient(t, ts, "alice")
	c.Upload("/par.mc", []byte(`
func main() {
	var n = reduce_sum(1);
	if (rank() == 0) {
		var name = readline();
		println("hello", name, "from", n, "ranks");
	}
}`))
	job, err := c.Submit("/par.mc", "minic", 4, "gustafson\n")
	if err != nil {
		t.Fatal(err)
	}
	_, output, err := c.WaitJob(job.ID, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(output, "hello gustafson from 4 ranks") {
		t.Fatalf("output = %q", output)
	}
}

func TestClientAuthErrors(t *testing.T) {
	_, ts := newTestSystem(t)
	c := NewClient(ts.URL)
	if err := c.Login("ghost", "nope"); err == nil {
		t.Fatal("ghost login succeeded")
	}
	if _, err := c.List("/"); err == nil {
		t.Fatal("unauthenticated list succeeded")
	}
	if err := c.Register("x", "short"); err == nil {
		t.Fatal("bad registration accepted")
	}
}

func TestClientLogout(t *testing.T) {
	_, ts := newTestSystem(t)
	c := loggedInClient(t, ts, "alice")
	if err := c.Logout(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.List("/"); err == nil {
		t.Fatal("session survived logout")
	}
}

func TestReproduceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction is bench territory")
	}
	rep, err := Reproduce(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table1) != 7 || len(rep.Table2) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Render(), "Table 3") {
		t.Fatal("render incomplete")
	}
}

func TestClientFormatAndEvents(t *testing.T) {
	_, ts := newTestSystem(t)
	c := loggedInClient(t, ts, "alice")
	c.Upload("/u.mc", []byte("func main(){println(1+1);}"))
	if err := c.FormatFile("/u.mc"); err != nil {
		t.Fatal(err)
	}
	data, _ := c.Download("/u.mc")
	if string(data) != "func main() {\n\tprintln(1 + 1);\n}\n" {
		t.Fatalf("formatted = %q", data)
	}
	job, err := c.Submit("/u.mc", "minic", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.WaitJob(job.ID, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	// done follows the terminal transition, and the node release is
	// recorded just after it, so read the feed until the release shows.
	kinds := map[string]bool{}
	for deadline := time.Now().Add(5 * time.Second); !kinds["released"] && time.Now().Before(deadline); {
		events, err := c.Events(0)
		if err != nil || len(events) < 4 {
			t.Fatalf("events = %d, %v", len(events), err)
		}
		for _, e := range events {
			kinds[e.Kind] = true
		}
		time.Sleep(time.Millisecond)
	}
	for _, want := range []string{"allocated", "running", "succeeded", "released"} {
		if !kinds[want] {
			t.Errorf("missing %s event in %v", want, kinds)
		}
	}
}

// TestClassroomOverHTTP replays a miniature class entirely through the
// public HTTP API: three students upload and run their Lab 5 submissions,
// and the instructor-side check grades the captured output.
func TestClassroomOverHTTP(t *testing.T) {
	_, ts := newTestSystem(t)
	type studentCase struct {
		name    string
		mastery bool
	}
	students := []studentCase{
		{"student-a", true},
		{"student-b", true},
		{"student-c", false},
	}
	passes := 0
	for _, sc := range students {
		c := loggedInClient(t, ts, sc.name)
		src := labs.MinicSource(labs.Lab5BankAccount, sc.mastery)
		if err := c.Upload("/lab5.mc", []byte(src)); err != nil {
			t.Fatal(err)
		}
		job, err := c.Submit("/lab5.mc", "minic", 1, "")
		if err != nil {
			t.Fatal(err)
		}
		final, output, err := c.WaitJob(job.ID, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != "succeeded" {
			t.Fatalf("%s job %s: %s", sc.name, job.ID, final.Failure)
		}
		if strings.Contains(output, labs.ExpectedOutput(labs.Lab5BankAccount)) {
			passes++
			if !sc.mastery {
				t.Logf("%s got lucky with the racy version", sc.name)
			}
		} else if sc.mastery {
			t.Errorf("%s submitted the fixed program but failed: %q", sc.name, output)
		}
	}
	if passes < 2 {
		t.Fatalf("only %d passes", passes)
	}
}
