package portal

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/auth"
	"repro/internal/jsonenc"
)

// SSE delivery tuning. While a job runs, the coalescing window batches a
// burst of VM writes into one flush so 10k watchers cost one syscall each
// per ~10ms instead of one per write; once the job is terminal no more bytes
// can come, so the wait ends early. The heartbeat keeps idle connections
// alive through proxies; the per-event cap turns a huge catch-up into
// several resumable frames instead of one giant one.
const (
	sseCoalesceWindow = 10 * time.Millisecond
	sseHeartbeat      = 15 * time.Second
	sseMaxEventBytes  = 32 << 10
)

// sseFlushBuckets sizes the sse_flush_seconds histogram: flushes are
// microseconds when healthy, so the buckets start well below DefBuckets.
var sseFlushBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.25, 1,
}

// streamLagBuckets sizes the stream_lag_bytes histogram, observed per flush:
// how far behind the stream head a watcher was when it caught up.
var streamLagBuckets = []float64{
	0, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
}

// sseOutputEvent is the v1 streaming envelope: one slice of the job's merged
// output. Seq is the stream position immediately after Data — echoed as the
// SSE id so Last-Event-ID resumes exactly where delivery stopped. Dropped
// counts bytes between the previous event and Data that aged out of the ring
// before this watcher read them.
//
// The delivery loop renders this shape with appendOutputFrame rather than
// encoding the struct; the parity test in encode_test.go keeps the two in
// sync.
type sseOutputEvent struct {
	Seq     int64  `json:"seq"`
	Stream  string `json:"stream"`
	Data    string `json:"data"`
	Dropped int64  `json:"dropped"`
}

// appendOutputFrame appends one complete SSE frame carrying an
// sseOutputEvent, escaping data straight out of the ring slice — the frame
// buffer is reused across the connection, so steady-state delivery does not
// allocate per event.
func appendOutputFrame(b []byte, seq int64, data []byte, dropped int64) []byte {
	b = append(b, "event: output\nid: "...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, "\ndata: {\"seq\":"...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"stream":"stdout","data":`...)
	b = jsonenc.AppendBytes(b, data)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, dropped, 10)
	return append(b, '}', '\n', '\n')
}

// sseDoneEvent terminates the stream: the job is finished and everything
// retained has been delivered.
type sseDoneEvent struct {
	Seq   int64  `json:"seq"`
	State string `json:"state"`
}

// writeSSE writes one Server-Sent Event frame. The payload is JSON-encoded,
// so it is a single line by construction (encoding/json escapes newlines).
func writeSSE(w io.Writer, event string, id int64, payload interface{}) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, data)
	return err
}

// handleJobEvents is the watch API, the one way to read a job's output: an
// SSE stream of it at GET /api/jobs/{id}/events. A fresh connection starts at
// sequence 0 (the oldest retained byte); a reconnecting client resumes from
// its Last-Event-ID (or an explicit ?seq=N, which wins); seq=-1 attaches at
// the live tail. While the job runs, writes from its ranks are coalesced for
// ~10ms and flushed as a batch; once the job is terminal its last batch and
// the "done" event go out at once, in one flush. A heartbeat comment keeps
// idle connections open. The handler never applies backpressure to the
// producing VM — a slow consumer sees an explicit dropped count instead.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	job, e := s.jobForRequest(r, sess)
	if e != nil {
		writeError(w, r, e)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, errf(http.StatusNotImplemented, CodeInternal,
			"connection does not support streaming"))
		return
	}
	from := int64(0)
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument,
				"Last-Event-ID must be a stream sequence number, got "+strconv.Quote(raw)))
			return
		}
		from = n
	}
	if raw := queryParam(r, "seq"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument,
				"seq must be a stream sequence number, got "+strconv.Quote(raw)))
			return
		}
		from = n
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	reg := s.metricsRegistry()
	watchers := reg.Gauge("stream_watchers")
	watchers.Add(1)
	defer watchers.Add(-1)
	flushHist := reg.Histogram("sse_flush_seconds", sseFlushBuckets)
	lagHist := reg.Histogram("stream_lag_bytes", streamLagBuckets)
	eventsTotal := reg.Counter("sse_events_total")
	droppedTotal := reg.Counter("stream_dropped_bytes_total")

	wtr := job.Stdout.Watch(from)
	defer wtr.Close()
	ctx := r.Context()
	// The store cancels the job's context last in a terminal transition,
	// after closing Stdout and recording the final state, so once it is done
	// the watcher drains for good and "done" carries the terminal state.
	jobEnded := job.Context().Done()
	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()

	var frame []byte // reused across the connection's whole delivery loop
	for {
		// Drain everything buffered since the last flush into one batch.
		start := time.Now()
		sent := 0
		for {
			ev, ok := wtr.TryNext(sseMaxEventBytes)
			if !ok {
				break
			}
			eventsTotal.Inc()
			droppedTotal.Add(ev.Dropped)
			frame = appendOutputFrame(frame[:0], ev.Seq, ev.Data, ev.Dropped)
			if _, err := w.Write(frame); err != nil {
				return
			}
			sent++
		}
		drained := wtr.Drained()
		if drained {
			if err := writeSSE(w, "done", wtr.Pos(), sseDoneEvent{Seq: wtr.Pos(), State: job.State().String()}); err != nil {
				return
			}
		}
		if sent > 0 || drained {
			flusher.Flush()
		}
		if sent > 0 {
			flushHist.Observe(time.Since(start).Seconds())
			lagHist.Observe(float64(wtr.Lag()))
		}
		if drained {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-wtr.Notify():
			// First byte of a burst arrived; linger one coalescing window so
			// the burst ships as a single flush, unless the job ends first.
			t := time.NewTimer(sseCoalesceWindow)
		coalesce:
			for {
				select {
				case <-t.C:
					break coalesce
				case <-jobEnded:
					t.Stop()
					break coalesce
				case <-ctx.Done():
					t.Stop()
					return
				case <-wtr.Notify():
				}
			}
		}
	}
}
