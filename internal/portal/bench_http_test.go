package portal

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/logging"
	"repro/internal/scheduler"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

// benchServer wires a full portal server (no HTTP listener) with a logged-in
// session, mirroring what newTestServer does but tuned for benchmarking: the
// logger is discarded so measured allocations belong to the serving path,
// not the log sink.
func benchServer(b testing.TB) (*Server, string) {
	b.Helper()
	cfg := config.Default()
	clus, err := cluster.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	tools := toolchain.NewService(nil)
	store := jobs.NewStore(0, nil)
	fs := vfs.New(0, nil)
	authSvc := auth.NewService(time.Hour, nil)
	sched := scheduler.New(clus, tools, store, fs, scheduler.Options{
		Policy: scheduler.PackPolicy{}, Logger: logging.Discard(),
	})
	srv := NewServer(authSvc, fs, tools, store, sched, clus, logging.Discard(), 0)
	if _, err := authSvc.Register("bench", "hunter2", auth.RoleStudent); err != nil {
		b.Fatal(err)
	}
	sess, err := authSvc.Login("bench", "hunter2")
	if err != nil {
		b.Fatal(err)
	}
	return srv, sess.Token
}

// benchRequest builds a reusable request carrying the session token and a
// client-supplied request ID (so the server does not generate one per call).
func benchRequest(method, target, token, body string) *http.Request {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	r.Header.Set("Authorization", "Bearer "+token)
	r.Header.Set(RequestIDHeader, "bench-rid")
	return r
}

// BenchmarkHTTPLanguages measures the full ServeHTTP path of the static
// GET /api/languages response: middleware, auth lookup, route metrics, and
// the pre-marshaled body.
func BenchmarkHTTPLanguages(b *testing.B) {
	srv, token := benchServer(b)
	req := benchRequest("GET", "/api/languages", token, "")
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d", rec.Code)
	}
}

// BenchmarkHTTPJobGet measures GET /api/jobs/{id} end to end, including the
// mux wildcard match and the job snapshot encode.
func BenchmarkHTTPJobGet(b *testing.B) {
	srv, token := benchServer(b)
	job, err := srv.Jobs.Submit(jobs.Spec{Owner: "bench", SourcePath: "/p.mc", Language: "minic", Ranks: 1})
	if err != nil {
		b.Fatal(err)
	}
	req := benchRequest("GET", "/api/jobs/"+job.ID, token, "")
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
}

// BenchmarkHTTPJobTrace measures GET /api/jobs/{id}/trace end to end for a
// finished job whose trace has a one-line job's shape (8 spans, 13
// attributes).
func BenchmarkHTTPJobTrace(b *testing.B) {
	srv, token := benchServer(b)
	job := floodShapedJob(b, srv)
	req := benchRequest("GET", "/api/jobs/"+job.ID+"/trace", token, "")
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
}

// BenchmarkHTTPJobList measures one GET /api/jobs page (8 jobs) end to end.
func BenchmarkHTTPJobList(b *testing.B) {
	srv, token := benchServer(b)
	for i := 0; i < 8; i++ {
		if _, err := srv.Jobs.Submit(jobs.Spec{Owner: "bench", SourcePath: fmt.Sprintf("/p%d.mc", i), Language: "minic", Ranks: 1}); err != nil {
			b.Fatal(err)
		}
	}
	req := benchRequest("GET", "/api/jobs?limit=8", token, "")
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
}

// BenchmarkHTTPSubmit measures POST /api/jobs end to end: body decode, job
// admission, and the accepted-job encode. Job creation itself allocates (a
// Job, its streams, its trace); the benchmark tracks the full handler cost
// so the encode/middleware share is regression-visible.
func BenchmarkHTTPSubmit(b *testing.B) {
	srv, token := benchServer(b)
	body := `{"source_path":"/p.mc","language":"minic","ranks":1}`
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		req := benchRequest("POST", "/api/jobs", token, body)
		srv.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusAccepted {
		b.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
}

// BenchmarkHTTPLogin measures POST /api/login end to end — dominated by
// credential verification, which the cached fast path short-circuits after
// the first successful login.
func BenchmarkHTTPLogin(b *testing.B) {
	srv, _ := benchServer(b)
	body := `{"user":"bench","password":"hunter2"}`
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		req := benchRequest("POST", "/api/login", "", body)
		srv.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
}
