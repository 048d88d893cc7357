// Serving-path JSON machinery. The portal's hot GET handlers run with zero
// steady-state allocations: response bytes are assembled into pooled buffers
// with hand-rolled append encoders (wire-compatible with what encoding/json
// produced for the same payloads), headers are set through shared immutable
// value slices, and Content-Length comes from a precomputed table so clients
// and proxies never see chunked encoding on small API responses.
//
// Cold handlers still go through encoding/json via Server.writeJSON, which —
// unlike the old free function — surfaces Encode errors instead of silently
// truncating the response, and logs them with the request ID.
package portal

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jobs"
	"repro/internal/jsonenc"
	"repro/internal/topology"
)

// Canonical header keys and shared immutable values, assigned directly into
// the response header map. Header.Set allocates a fresh []string per call;
// these slices are package-level, never mutated, and safe to share across
// responses.
var (
	hdrContentType   = "Content-Type"
	hdrContentLength = "Content-Length"
	ctJSON           = []string{"application/json"}
)

// clenTable holds ready-made Content-Length header values for small bodies —
// every API response below 4 KiB sets the header without allocating. The
// slices are immutable by contract.
var clenTable = func() [][]string {
	t := make([][]string, 4096)
	for i := range t {
		t[i] = []string{strconv.Itoa(i)}
	}
	return t
}()

func contentLengthValue(n int) []string {
	if n < len(clenTable) {
		return clenTable[n]
	}
	return []string{strconv.Itoa(n)}
}

// respBuf is a pooled response-assembly buffer. The enc/buf pair serves the
// encoding/json path; b serves the hand-append path. One pool covers both so
// a handler never holds more than one spare buffer.
type respBuf struct {
	buf bytes.Buffer // encoder output
	enc *json.Encoder
	b   []byte // hand-append output
}

// maxPooledBuf caps what goes back in the pool; a rare huge response must not
// pin its buffer forever.
const maxPooledBuf = 1 << 20

var respBufs = sync.Pool{New: func() interface{} {
	rb := &respBuf{}
	rb.enc = json.NewEncoder(&rb.buf)
	return rb
}}

func getBuf() *respBuf { return respBufs.Get().(*respBuf) }

func putBuf(rb *respBuf) {
	if rb.buf.Cap() > maxPooledBuf || cap(rb.b) > maxPooledBuf {
		return
	}
	respBufs.Put(rb)
}

// writeBody sends a fully assembled JSON body: Content-Type and an exact
// Content-Length, then the bytes. The caller still owns body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h[hdrContentType] = ctJSON
	h[hdrContentLength] = contentLengthValue(len(body))
	w.WriteHeader(status)
	w.Write(body)
}

// writeRaw sends rb.b and returns rb to the pool.
func writeRaw(w http.ResponseWriter, status int, rb *respBuf) {
	writeBody(w, status, rb.b)
	putBuf(rb)
}

// encodeFailedBody is the static fallback for the one failure writeJSON can
// hit before any byte reaches the wire: the payload itself refusing to
// encode. Static so emitting it cannot fail the same way.
var encodeFailedBody = []byte("{\"error\":{\"code\":\"internal\",\"message\":\"response encoding failed\"}}\n")

// writeJSON encodes v through encoding/json into a pooled buffer, then sends
// it with an exact Content-Length. Encode errors — dropped on the floor by
// the old implementation — are logged with the request ID and turned into a
// 500 envelope, which is only possible because nothing has been written yet.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	rb := getBuf()
	rb.buf.Reset()
	if err := rb.enc.Encode(v); err != nil {
		putBuf(rb)
		s.Log.Errorf("portal: encoding %T response failed (rid=%s): %v", v, requestIDOf(w), err)
		writeBody(w, http.StatusInternalServerError, encodeFailedBody)
		return
	}
	writeBody(w, status, rb.buf.Bytes())
	putBuf(rb)
}

// requestIDOf recovers the request ID the middleware assigned from the
// statusWriter wrapping the response, or "" for a handler invoked directly.
func requestIDOf(w http.ResponseWriter) string {
	if sw, ok := w.(*statusWriter); ok {
		return sw.rid
	}
	return ""
}

// --- append encoders -------------------------------------------------------
//
// These produce byte-for-byte what encoding/json would for the same payload
// (HTML-escaping included), without the reflection walk or the per-field
// interface boxing; strings and times go through package jsonenc. Each hot
// response shape gets one appender; everything else stays on writeJSON.

// appendNodeID appends a node ID as a quoted string in the same "s%dn%02d"
// form topology.NodeID.String renders.
func appendNodeID(b []byte, id topology.NodeID) []byte {
	b = append(b, '"', 's')
	b = strconv.AppendInt(b, int64(id.Segment), 10)
	b = append(b, 'n')
	if id.Index < 10 && id.Index >= 0 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(id.Index), 10)
	return append(b, '"')
}

// appendJob appends one job snapshot in the jobJSON wire shape. Field set,
// order, and omission rules mirror the jobJSON struct tags: started and
// finished are always present (encoding/json's omitempty never omits a
// struct), failure only when set, nodes only when placed.
func appendJob(b []byte, snap *jobs.Snapshot) []byte {
	b = append(b, `{"id":`...)
	b = jsonenc.AppendString(b, snap.ID)
	b = append(b, `,"owner":`...)
	b = jsonenc.AppendString(b, snap.Spec.Owner)
	b = append(b, `,"source_path":`...)
	b = jsonenc.AppendString(b, snap.Spec.SourcePath)
	b = append(b, `,"language":`...)
	b = jsonenc.AppendString(b, snap.Spec.Language)
	b = append(b, `,"ranks":`...)
	b = strconv.AppendInt(b, int64(snap.Spec.Ranks), 10)
	b = append(b, `,"state":`...)
	b = jsonenc.AppendString(b, snap.State.String())
	b = append(b, `,"submitted":`...)
	b = jsonenc.AppendTime(b, snap.Submitted)
	b = append(b, `,"started":`...)
	b = jsonenc.AppendTime(b, snap.Started)
	b = append(b, `,"finished":`...)
	b = jsonenc.AppendTime(b, snap.Finished)
	if snap.Failure != "" {
		b = append(b, `,"failure":`...)
		b = jsonenc.AppendString(b, snap.Failure)
	}
	if len(snap.Nodes) > 0 {
		b = append(b, `,"nodes":[`...)
		for i, n := range snap.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendNodeID(b, n)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// snapPool recycles the Snapshot scratch (and its Nodes backing array) the
// job GET/submit handlers fill per request.
var snapPool = sync.Pool{New: func() interface{} { return new(jobs.Snapshot) }}

// writeJob sends one job snapshot, hand-encoded, through a pooled buffer.
func (s *Server) writeJob(w http.ResponseWriter, status int, job *jobs.Job) {
	snap := snapPool.Get().(*jobs.Snapshot)
	job.SnapshotInto(snap)
	rb := getBuf()
	b := appendJob(rb.b[:0], snap)
	rb.b = append(b, '\n')
	snapPool.Put(snap)
	writeRaw(w, status, rb)
}

// jobPage recycles the snapshot slice the list handler pages into.
type jobPage struct {
	snaps []jobs.Snapshot
}

var jobPages = sync.Pool{New: func() interface{} { return new(jobPage) }}

// --- query parameters ------------------------------------------------------

// queryParam returns the first value of key in the raw query without
// materializing a url.Values map. Escaped values take a slow decoding path;
// the portal's own parameters (limit, cursor, state, offset, wait, all) are
// plain tokens that never need it.
func queryParam(r *http.Request, key string) string {
	raw := r.URL.RawQuery
	for len(raw) > 0 {
		pair := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if len(pair) <= len(key) || pair[len(key)] != '=' || pair[:len(key)] != key {
			continue
		}
		v := pair[len(key)+1:]
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			if q := r.URL.Query(); q.Has(key) {
				return q.Get(key)
			}
		}
		return v
	}
	return ""
}
