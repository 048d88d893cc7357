package portal

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/logging"
	"repro/internal/metrics"
)

// RequestIDHeader is the header a client may set to correlate its own logs
// with the portal's; the portal echoes it on every response and generates
// one when absent.
const RequestIDHeader = "X-Request-ID"

// ridHeaderKey is RequestIDHeader in the canonical form the header map keys
// by, so the middleware can assign directly instead of going through Set.
const ridHeaderKey = "X-Request-Id"

// sanitizeRequestID accepts a client-supplied ID only if it is short and
// printable ASCII without spaces — anything else would corrupt access logs.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return ""
		}
	}
	return id
}

// statusWriter captures the status code and body size for metrics and the
// access log, and carries the request ID so handlers and writeError reach it
// without a context lookup. Flush is forwarded so streaming handlers keep
// working. Instances are pooled: one lives exactly for the duration of a
// ServeHTTP call, alongside its access-line scratch buffer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	rid    string
	route  string // mux pattern, stamped by the route registration wrapper
	line   []byte // access-line assembly, reused across requests
}

var statusWriters = sync.Pool{New: func() interface{} { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// route registers h under pattern and stamps the pattern on the statusWriter
// when the handler runs. ServeHTTP previously called mux.Handler(r) before
// dispatching just to learn the route for metrics — matching every request
// twice and, on wildcard routes, allocating a second capture slice.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = pattern
		}
		h(w, r)
	})
}

// SetAccessLogSampling makes the access log record one in every n successful
// requests (n <= 1 restores logging every request). Requests that fail —
// status 400 and up — are always logged. Under heavy load the access log is
// the serving path's main contention point; sampling keeps the signal while
// shedding the cost.
func (s *Server) SetAccessLogSampling(n int) {
	if n < 1 {
		n = 1
	}
	s.accessEvery.Store(int64(n))
}

// shouldLogAccess applies the sampling policy: errors always, successes one
// in accessEvery.
func (s *Server) shouldLogAccess(status int) bool {
	if status >= 400 {
		return true
	}
	every := s.accessEvery.Load()
	if every <= 1 {
		return true
	}
	return s.accessN.Add(1)%uint64(every) == 0
}

// ServeHTTP implements http.Handler. Every request passes through here: a
// request ID is assigned (or accepted from the client) and echoed, the
// request latency is observed into the per-route http_request_seconds
// histogram, and a structured access line is logged — assembled into a
// pooled buffer with strconv appends, so a sampled-out or filtered line
// costs nothing and an emitted one allocates nothing.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Index by the canonical key directly: Header.Get(RequestIDHeader) would
	// re-canonicalize "X-Request-ID" (and allocate) on every request.
	clientRID := ""
	if v := r.Header[ridHeaderKey]; len(v) > 0 {
		clientRID = v[0]
	}
	rid := sanitizeRequestID(clientRID)
	if rid == "" {
		rid = s.reqIDs.Next()
	}
	h := w.Header()
	if v := h[ridHeaderKey]; len(v) == 1 {
		// Reuse the existing value slice in place (it belongs to this
		// response) rather than allocating a fresh one.
		v[0] = rid
	} else {
		h[ridHeaderKey] = []string{rid}
	}

	sw := statusWriters.Get().(*statusWriter)
	sw.ResponseWriter, sw.status, sw.bytes, sw.rid, sw.route = w, 0, 0, rid, ""

	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)

	route := sw.route
	if route == "" {
		route = "unmatched"
	}

	s.metricsRegistry().
		HistogramLabeled("http_request_seconds", "route", route, metrics.DefBuckets).
		Observe(elapsed.Seconds())

	if s.shouldLogAccess(sw.status) && s.Log.Enabled(logging.Info) {
		b := append(sw.line[:0], "http rid="...)
		b = append(b, rid...)
		b = append(b, " method="...)
		b = append(b, r.Method...)
		b = append(b, " path="...)
		b = appendLogValue(b, r.URL.Path)
		b = append(b, " route="...)
		b = appendLogValue(b, route)
		b = append(b, " status="...)
		b = strconv.AppendInt(b, int64(sw.status), 10)
		b = append(b, " bytes="...)
		b = strconv.AppendInt(b, sw.bytes, 10)
		b = append(b, " dur_us="...)
		b = strconv.AppendInt(b, elapsed.Microseconds(), 10)
		s.Log.WriteLine(logging.Info, b)
		sw.line = b[:0]
	}
	sw.ResponseWriter = nil
	statusWriters.Put(sw)
}

// appendLogValue appends v, quoting it when it contains a space, tab or
// double quote, any of which would break the key=value line format.
func appendLogValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == ' ' || c == '\t' || c == '"' {
			return strconv.AppendQuote(b, v)
		}
	}
	return append(b, v...)
}
