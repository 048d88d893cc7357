package ccportal

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// rateLimitedBody is the envelope a throttled portal sends.
const rateLimitedBody = `{"error":{"code":"rate_limited","message":"api rate limit exceeded"}}`

// TestClientRetriesAfter429 drives the transparent retry: two 429s with a
// short Retry-After, then success. The client must resend — with the request
// body rewound — and the caller never sees the throttle.
func TestClientRetriesAfter429(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, rateLimitedBody)
			return
		}
		// The retried request must carry the original body, proving rewind.
		if string(body) != `{"k":"v"}` {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":{"code":"invalid_argument","message":"body lost on retry"}}`)
			return
		}
		io.WriteString(w, `{"ok":true}`)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	var out struct {
		OK bool `json:"ok"`
	}
	start := time.Now()
	if err := c.doJSON("POST", "/x", map[string]string{"k": "v"}, &out); err != nil {
		t.Fatalf("doJSON after retries: %v", err)
	}
	if !out.OK {
		t.Fatal("response not decoded after retry")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 throttled + 1 success)", got)
	}
	// Retry-After: 0 plus jitter bounds each wait by ~100ms; well under a
	// second total even on a slow runner.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retries took %v, want sub-second backoff for Retry-After: 0", elapsed)
	}
}

// TestClientSurfaces429AfterRetryBudget: a persistent throttle stops being
// retried after maxRateLimitRetries and surfaces as a typed APIError.
func TestClientSurfaces429AfterRetryBudget(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, rateLimitedBody)
	}))
	defer srv.Close()

	err := NewClient(srv.URL).do("GET", "/x", nil, nil)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.Code != "rate_limited" {
		t.Fatalf("APIError = %+v", ae)
	}
	if got := hits.Load(); got != int64(maxRateLimitRetries)+1 {
		t.Fatalf("server saw %d requests, want %d", got, maxRateLimitRetries+1)
	}
}

// TestClientDoesNotRetryLongOrHeaderless429: a Retry-After beyond the
// client's patience, or a 429 with no header at all, surfaces immediately —
// sleeping a minute inside a library call would be worse than the error.
func TestClientDoesNotRetryLongOrHeaderless429(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header string
	}{
		{"long wait", "60"},
		{"no header", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, rateLimitedBody)
			}))
			defer srv.Close()

			err := NewClient(srv.URL).do("GET", "/x", nil, nil)
			var ae *APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
				t.Fatalf("err = %v, want 429 APIError", err)
			}
			if got := hits.Load(); got != 1 {
				t.Fatalf("server saw %d requests, want 1 (no retry)", got)
			}
		})
	}
}

// TestClientWaitJobRetriesThrottledWatch: the event stream rides out a
// short 429 the same way every other call does, so WaitJob does not fail on
// a throttle that Submit and JobStatus would absorb.
func TestClientWaitJobRetriesThrottledWatch(t *testing.T) {
	var watches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/jobs/job-1/events":
			if watches.Add(1) == 1 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, rateLimitedBody)
				return
			}
			w.Header().Set("Content-Type", "text/event-stream")
			io.WriteString(w, "event: output\ndata: {\"seq\":0,\"data\":\"hi\\n\"}\n\n")
			io.WriteString(w, "event: done\ndata: {\"seq\":3,\"state\":\"succeeded\"}\n\n")
		case "/api/jobs/job-1":
			io.WriteString(w, `{"id":"job-1","state":"succeeded"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	job, out, err := NewClient(srv.URL).WaitJob("job-1", 5*time.Second)
	if err != nil {
		t.Fatalf("WaitJob after one throttled watch: %v", err)
	}
	if job.State != "succeeded" || out != "hi\n" {
		t.Fatalf("job = %+v, output = %q", job, out)
	}
	if got := watches.Load(); got != 2 {
		t.Fatalf("server saw %d /events requests, want 2 (1 throttled + 1 stream)", got)
	}
}

// TestClientDownloadErrorIsAPIError: a failed download decodes the error
// envelope like every other call, so callers can branch on the code and
// quote the request ID.
func TestClientDownloadErrorIsAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":{"code":"not_found","message":"no such file","request_id":"req-42"}}`)
	}))
	defer srv.Close()

	_, err := NewClient(srv.URL).Download("/missing.mc")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v (%T), want *APIError", err, err)
	}
	if ae.Status != http.StatusNotFound || ae.Code != "not_found" || ae.RequestID != "req-42" {
		t.Fatalf("APIError = %+v", ae)
	}
}
