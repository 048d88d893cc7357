package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// requestTimeout bounds one request, an SSE watch included: a hung request
// or a stream that never ends fails its op instead of stalling the run.
const requestTimeout = 30 * time.Second

// client is one generator connection. Each worker owns one, and its
// transport holds at most one TCP connection, so a workload with two
// workers never opens more than two. Bodies are always read to EOF so the
// connection is reused.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	br   *bufio.Reader
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	hc := &http.Client{Transport: tr, Timeout: requestTimeout}
	return &client{hc: hc, base: base, br: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed request as the client saw it. body aliases the
// client's buffer and is valid until the next request.
type response struct {
	status     int
	body       []byte
	rid        string // the portal's X-Request-ID, which keys its server span
	sent, recv time.Time
}

func (r response) ok() bool { return r.status >= 200 && r.status < 300 }

func (c *client) do(method, path, token string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil && method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	r := response{sent: time.Now()}
	res, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	res.Body.Close()
	r.recv = time.Now()
	r.status = res.StatusCode
	r.body = c.buf.Bytes()
	r.rid = res.Header.Get("X-Request-Id")
	return r, err
}

// postJSON sends v as a JSON body.
func (c *client) postJSON(path, token string, v any) (response, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return response{}, err
	}
	return c.do(http.MethodPost, path, token, b)
}

// watchResult is what an SSE watch of one job delivered.
type watchResult struct {
	firstOut time.Time // first output event received (zero if none)
	done     time.Time // done event received
	state    string    // job state carried by the done event
	output   []byte
	dropped  int64
	events   int
}

// watch streams GET /api/jobs/{id}/events from sequence 0 until the done
// event, then reads the body to EOF so the connection is reused.
func (c *client) watch(id, token string) (watchResult, response, error) {
	var w watchResult
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/jobs/"+id+"/events", nil)
	if err != nil {
		return w, response{}, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	r := response{sent: time.Now()}
	res, err := c.hc.Do(req)
	if err != nil {
		return w, r, err
	}
	defer res.Body.Close()
	r.status = res.StatusCode
	r.rid = res.Header.Get("X-Request-Id")
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, res.Body)
		r.recv = time.Now()
		return w, r, nil
	}
	c.br.Reset(res.Body)
	err = parseSSE(c.br, &w)
	if err == nil {
		_, err = io.Copy(io.Discard, c.br)
	}
	r.recv = time.Now()
	if err == nil && w.done.IsZero() {
		err = fmt.Errorf("event stream for %s ended without a done event", id)
	}
	return w, r, err
}

// parseSSE reads frames until the done event, filling w. Output events
// carry {seq, stream, data, dropped}; the done event carries {seq, state}.
func parseSSE(br *bufio.Reader, w *watchResult) error {
	var event string
	var data []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err == io.EOF && len(line) == 0 {
				return nil
			}
			return fmt.Errorf("reading event stream: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event == "" {
				continue
			}
			done, err := applyEvent(w, event, data)
			if err != nil || done {
				return err
			}
			event, data = "", data[:0]
		case line[0] == ':':
			// heartbeat comment
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
	}
}

func applyEvent(w *watchResult, event string, data []byte) (done bool, err error) {
	now := time.Now()
	switch event {
	case "output":
		var ev struct {
			Data    string `json:"data"`
			Dropped int64  `json:"dropped"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, fmt.Errorf("output event %q: %w", data, err)
		}
		if w.events == 0 {
			w.firstOut = now
		}
		w.events++
		w.output = append(w.output, ev.Data...)
		w.dropped += ev.Dropped
	case "done":
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, fmt.Errorf("done event %q: %w", data, err)
		}
		w.done, w.state = now, ev.State
		return true, nil
	default:
		return false, fmt.Errorf("unexpected event %q", strings.TrimSpace(event))
	}
	return false, nil
}
