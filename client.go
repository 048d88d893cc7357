package ccportal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a Go client for the portal's HTTP API — what cmd/portalctl and
// scripted course tooling use instead of the browser UI.
type Client struct {
	// BaseURL is the portal root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client

	token string
}

// NewClient returns a Client for the given portal URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a failed portal call, decoded from the error envelope. Callers
// branch on Code — the stable machine-readable identifier — never on the
// message text. RequestID matches the portal's access log and the job trace,
// so it is the handle to quote when reporting a problem.
type APIError struct {
	Status    int    // HTTP status code
	Code      string // stable code, e.g. "not_found", "queue_full"
	Message   string
	RequestID string
	Details   json.RawMessage // optional structured payload (compile diagnostics)
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("ccportal: %s: %s (HTTP %d, request %s)", e.Code, e.Message, e.Status, e.RequestID)
	}
	return fmt.Sprintf("ccportal: %s: %s (HTTP %d)", e.Code, e.Message, e.Status)
}

// Rate-limit retry policy: a 429 whose Retry-After is short is retried
// transparently a bounded number of times, with a little jitter so a herd of
// throttled clients does not reconverge on the same instant. A 429 without
// the header, or with a wait beyond maxRetryAfterWait, surfaces as an
// *APIError for the caller to handle.
const (
	maxRateLimitRetries = 2
	maxRetryAfterWait   = 2 * time.Second
	retryJitterMax      = 100 * time.Millisecond
)

// send issues one API request and is the client's only path to the wire:
// it sets the session token, retries a short 429 under the policy above and
// turns any other error status into an *APIError. On success the caller
// owns the response body.
func (c *Client) send(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		res, err := c.httpClient().Do(req)
		if err != nil {
			return nil, err
		}
		if res.StatusCode < 400 {
			return res, nil
		}
		data, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
		res.Body.Close()
		if err != nil {
			return nil, err
		}
		if res.StatusCode == http.StatusTooManyRequests && attempt < maxRateLimitRetries {
			if wait, ok := retryAfterOf(res); ok && wait <= maxRetryAfterWait && rewind(body) {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(wait + time.Duration(rand.Int63n(int64(retryJitterMax)))):
				}
				continue
			}
		}
		return nil, decodeAPIError(res, data, method, path)
	}
}

func (c *Client) do(method, path string, body io.Reader, out interface{}) error {
	res, err := c.send(context.Background(), method, path, body)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("ccportal: decoding %s: %w", path, err)
		}
	}
	return nil
}

// retryAfterOf parses the response's Retry-After header (delta-seconds form).
func retryAfterOf(res *http.Response) (time.Duration, bool) {
	raw := res.Header.Get("Retry-After")
	if raw == "" {
		return 0, false
	}
	secs, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// rewind prepares body for a retried request. A nil body needs nothing; a
// seekable body (bytes.Reader — what doJSON always builds) rewinds to the
// start; anything else cannot be replayed, so the retry is abandoned.
func rewind(body io.Reader) bool {
	if body == nil {
		return true
	}
	s, ok := body.(io.Seeker)
	if !ok {
		return false
	}
	_, err := s.Seek(0, io.SeekStart)
	return err == nil
}

// decodeAPIError turns a non-2xx response body into an *APIError, tolerating
// bodies that are not the standard envelope.
func decodeAPIError(res *http.Response, body []byte, method, path string) *APIError {
	ae := &APIError{Status: res.StatusCode, RequestID: res.Header.Get("X-Request-ID")}
	var env struct {
		Error struct {
			Code      string          `json:"code"`
			Message   string          `json:"message"`
			RequestID string          `json:"request_id"`
			Details   json.RawMessage `json:"details"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		ae.Details = env.Error.Details
		if env.Error.RequestID != "" {
			ae.RequestID = env.Error.RequestID
		}
	} else {
		ae.Code = "internal"
		ae.Message = fmt.Sprintf("%s %s returned no error envelope", method, path)
	}
	return ae
}

func (c *Client) doJSON(method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		j, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(j)
	}
	return c.do(method, path, body, out)
}

// Register creates a student account.
func (c *Client) Register(user, password string) error {
	return c.doJSON("POST", "/api/register", map[string]string{"user": user, "password": password}, nil)
}

// Login opens a session; subsequent calls carry its token.
func (c *Client) Login(user, password string) error {
	var resp struct {
		Token string `json:"token"`
	}
	if err := c.doJSON("POST", "/api/login", map[string]string{"user": user, "password": password}, &resp); err != nil {
		return err
	}
	c.token = resp.Token
	return nil
}

// Logout closes the session.
func (c *Client) Logout() error {
	err := c.doJSON("POST", "/api/logout", nil, nil)
	c.token = ""
	return err
}

// FileInfo is one file-browser entry.
type FileInfo struct {
	Name    string    `json:"name"`
	Path    string    `json:"path"`
	Dir     bool      `json:"dir"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// List returns the entries of a home directory path.
func (c *Client) List(path string) ([]FileInfo, error) {
	var out []FileInfo
	err := c.do("GET", "/api/files?path="+url.QueryEscape(path), nil, &out)
	return out, err
}

// Upload stores content at path in the user's home, creating parents.
func (c *Client) Upload(path string, content []byte) error {
	return c.do("PUT", "/api/files/content?path="+url.QueryEscape(path), bytes.NewReader(content), nil)
}

// Download fetches a file's contents.
func (c *Client) Download(path string) ([]byte, error) {
	res, err := c.send(context.Background(), "GET", "/api/files/content?path="+url.QueryEscape(path), nil)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	return io.ReadAll(res.Body)
}

// Mkdir creates a directory (and parents).
func (c *Client) Mkdir(path string) error {
	return c.doJSON("POST", "/api/files/mkdir", map[string]string{"path": path}, nil)
}

// Rename moves src to dst.
func (c *Client) Rename(src, dst string) error {
	return c.doJSON("POST", "/api/files/rename", map[string]string{"src": src, "dst": dst}, nil)
}

// Copy duplicates src to dst.
func (c *Client) Copy(src, dst string) error {
	return c.doJSON("POST", "/api/files/copy", map[string]string{"src": src, "dst": dst}, nil)
}

// Remove deletes a path.
func (c *Client) Remove(path string, recursive bool) error {
	return c.doJSON("POST", "/api/files/delete",
		map[string]interface{}{"path": path, "recursive": recursive}, nil)
}

// CompileResult is the outcome of a compile-only request.
type CompileResult struct {
	OK          bool     `json:"ok"`
	Artifact    string   `json:"artifact"`
	Language    string   `json:"language"`
	Cached      bool     `json:"cached"`
	Diagnostics []string `json:"diagnostics"`
}

// Compile builds a source file without running it. A program that fails to
// compile is not an error from the caller's point of view: the result carries
// the diagnostics and OK=false.
func (c *Client) Compile(path, language string) (CompileResult, error) {
	var out CompileResult
	err := c.doJSON("POST", "/api/compile", map[string]string{"path": path, "language": language}, &out)
	var ae *APIError
	if errors.As(err, &ae) && ae.Code == "compile_failed" {
		var det struct {
			Diagnostics []string `json:"diagnostics"`
		}
		json.Unmarshal(ae.Details, &det)
		if len(det.Diagnostics) == 0 {
			det.Diagnostics = []string{ae.Message}
		}
		return CompileResult{OK: false, Diagnostics: det.Diagnostics}, nil
	}
	return out, err
}

// Job is a job record as the API reports it.
type Job struct {
	ID         string    `json:"id"`
	Owner      string    `json:"owner"`
	SourcePath string    `json:"source_path"`
	Language   string    `json:"language"`
	Ranks      int       `json:"ranks"`
	State      string    `json:"state"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started"`
	Finished   time.Time `json:"finished"`
	Failure    string    `json:"failure"`
	Nodes      []string  `json:"nodes"`
}

// Terminal reports whether the job has finished.
func (j Job) Terminal() bool {
	switch j.State {
	case "succeeded", "failed", "cancelled":
		return true
	}
	return false
}

// Submit queues a source file for compilation and execution on ranks nodes.
func (c *Client) Submit(sourcePath, language string, ranks int, stdin string) (Job, error) {
	var out Job
	err := c.doJSON("POST", "/api/jobs", map[string]interface{}{
		"source_path": sourcePath, "language": language, "ranks": ranks, "stdin": stdin,
	}, &out)
	return out, err
}

// SubmitGPU is Submit with placement restricted to GPU-equipped nodes.
func (c *Client) SubmitGPU(sourcePath, language string, ranks int, stdin string) (Job, error) {
	var out Job
	err := c.doJSON("POST", "/api/jobs", map[string]interface{}{
		"source_path": sourcePath, "language": language, "ranks": ranks,
		"stdin": stdin, "gpu": true,
	}, &out)
	return out, err
}

// JobStatus fetches the job record.
func (c *Client) JobStatus(id string) (Job, error) {
	var out Job
	err := c.do("GET", "/api/jobs/"+id, nil, &out)
	return out, err
}

// JobPage is one page of the job listing.
type JobPage struct {
	Jobs []Job `json:"jobs"`
	// NextCursor is "" on the last page; otherwise pass it to the next
	// JobsPage call to continue.
	NextCursor string `json:"next_cursor"`
}

// JobsPage fetches one page of the caller's jobs, newest first. state filters
// by job state name and may be ""; limit <= 0 uses the server default;
// cursor is "" for the first page.
func (c *Client) JobsPage(state string, limit int, cursor string) (JobPage, error) {
	q := url.Values{}
	if state != "" {
		q.Set("state", state)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	path := "/api/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out JobPage
	err := c.do("GET", path, nil, &out)
	return out, err
}

// Jobs lists all of the caller's jobs, newest first, following pagination
// until the history is exhausted.
func (c *Client) Jobs() ([]Job, error) {
	var all []Job
	cursor := ""
	for {
		page, err := c.JobsPage("", 0, cursor)
		if err != nil {
			return all, err
		}
		all = append(all, page.Jobs...)
		if page.NextCursor == "" {
			return all, nil
		}
		cursor = page.NextCursor
	}
}

// TraceSpan is one node of a job's span tree. DurationUS is -1 while the
// span is still open.
type TraceSpan struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs"`
	Children   []TraceSpan       `json:"children"`
}

// JobTrace is the lifecycle trace of one job.
type JobTrace struct {
	ID    string    `json:"id"`
	State string    `json:"state"`
	Trace TraceSpan `json:"trace"`
}

// Trace fetches the span tree recorded across a job's lifecycle: queueing,
// dispatch, node allocation, compilation, and execution.
func (c *Client) Trace(id string) (JobTrace, error) {
	var out JobTrace
	err := c.do("GET", "/api/jobs/"+id+"/trace", nil, &out)
	return out, err
}

// WatchEvent is one delivery from a job's event stream. Seq is the stream
// position immediately after Data — the cursor WatchFrom resumes from.
// Dropped counts bytes that aged out of the server's retention ring before
// this watcher read them (0 in the healthy case). The final event of a
// stream has Done=true and carries the job's terminal State instead of data.
type WatchEvent struct {
	Seq     int64  `json:"seq"`
	Stream  string `json:"stream"`
	Data    string `json:"data"`
	Dropped int64  `json:"dropped"`
	State   string `json:"state"`
	Done    bool   `json:"-"`
}

// Watch is a live subscription to a job's output, delivered server-push over
// one HTTP connection (Server-Sent Events). Iterate with Next; Close
// releases the connection.
type Watch struct {
	body io.ReadCloser
	br   *bufio.Reader
	done bool
}

// Watch subscribes to the job's output from the beginning of its retained
// history. It returns an iterator of events: call Next until it returns the
// Done event; after that Next reports io.EOF. The subscription lives until
// ctx is cancelled, Close is called, or the job finishes and is drained.
func (c *Client) Watch(ctx context.Context, id string) (*Watch, error) {
	return c.WatchFrom(ctx, id, 0)
}

// WatchFrom is Watch resuming from a previous event's Seq. seq < 0 attaches
// at the live tail (only new output); a stale seq is clamped to the oldest
// retained byte, surfacing the gap as the first event's Dropped count.
func (c *Client) WatchFrom(ctx context.Context, id string, seq int64) (*Watch, error) {
	res, err := c.send(ctx, "GET", fmt.Sprintf("/api/jobs/%s/events?seq=%d", id, seq), nil)
	if err != nil {
		return nil, err
	}
	return &Watch{body: res.Body, br: bufio.NewReader(res.Body)}, nil
}

// Next returns the next event, blocking until one arrives. After the job
// finishes it returns the terminal event (Done=true), then io.EOF. A stream
// that ends before the Done event returns io.ErrUnexpectedEOF. A cancelled
// context surfaces as the underlying transport error.
func (w *Watch) Next() (WatchEvent, error) {
	if w.done {
		return WatchEvent{}, io.EOF
	}
	var event string
	var data []byte
	for {
		line, err := w.br.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return WatchEvent{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event == "" && data == nil {
				continue // separator after a comment/heartbeat
			}
			var ev WatchEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return WatchEvent{}, fmt.Errorf("ccportal: decoding %s event: %w", event, err)
			}
			if event == "done" {
				ev.Done = true
				w.done = true
			}
			return ev, nil
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
}

// Close releases the subscription's connection. It is safe to call at any
// point, including concurrently with a blocked Next.
func (w *Watch) Close() error { return w.body.Close() }

// SendInput feeds interactive stdin to a running job.
func (c *Client) SendInput(id, data string) error {
	return c.doJSON("POST", "/api/jobs/"+id+"/input", map[string]string{"data": data}, nil)
}

// Cancel cancels a queued or running job. A running job is actually halted:
// its VM ranks stop mid-program and its nodes are released.
func (c *Client) Cancel(id string) error {
	return c.doJSON("POST", "/api/jobs/"+id+"/cancel", nil, nil)
}

// WaitJob follows the job's event stream until it finishes or the timeout
// elapses, returning the final record and its full output. A stream cut
// before the job's Done event is an error wrapping io.ErrUnexpectedEOF.
func (c *Client) WaitJob(id string, timeout time.Duration) (Job, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	w, err := c.Watch(ctx, id)
	if err != nil {
		return Job{}, "", err
	}
	defer w.Close()
	var output strings.Builder
	for {
		ev, err := w.Next()
		if err != nil {
			if ctx.Err() != nil {
				job, _ := c.JobStatus(id)
				return job, output.String(), fmt.Errorf("ccportal: job %s still %s after %v", id, job.State, timeout)
			}
			return Job{}, output.String(), fmt.Errorf("ccportal: watching job %s: %w", id, err)
		}
		if ev.Done {
			job, serr := c.JobStatus(id)
			return job, output.String(), serr
		}
		output.WriteString(ev.Data)
	}
}

// ClusterStats is the portal's cluster summary.
type ClusterStats struct {
	TotalNodes  int            `json:"total_nodes"`
	FreeNodes   int            `json:"free_nodes"`
	Utilization float64        `json:"utilization"`
	Jobs        map[string]int `json:"jobs"`
	Dispatched  int64          `json:"dispatched"`
}

// Stats fetches the cluster summary.
func (c *Client) Stats() (ClusterStats, error) {
	var out ClusterStats
	err := c.do("GET", "/api/cluster/stats", nil, &out)
	return out, err
}

// FormatFile pretty-prints a minic source file in place on the server.
func (c *Client) FormatFile(path string) error {
	return c.doJSON("POST", "/api/files/format", map[string]string{"path": path}, nil)
}

// SchedulerEvent is one entry of the portal's activity feed: a job's lifecycle
// step (Kind is the state entered) or a placement ("allocated", "released").
type SchedulerEvent struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	JobID  string    `json:"job_id"`
	Nodes  []string  `json:"nodes"`
	Detail string    `json:"detail"`
}

// Events fetches the scheduler's recent activity with sequence >= since.
func (c *Client) Events(since int64) ([]SchedulerEvent, error) {
	var out []SchedulerEvent
	err := c.do("GET", fmt.Sprintf("/api/cluster/events?since=%d", since), nil, &out)
	return out, err
}

// PersistenceStatus describes the portal's data provider: its mode and the
// WAL/snapshot counters behind it.
type PersistenceStatus struct {
	Mode          string    `json:"mode"`
	Dir           string    `json:"dir"`
	Fsync         string    `json:"fsync"`
	WALRecords    int64     `json:"wal_records"`
	WALBytes      int64     `json:"wal_bytes"`
	Batches       int64     `json:"batches"`
	Fsyncs        int64     `json:"fsyncs"`
	Snapshots     int64     `json:"snapshots"`
	LastSnapshot  time.Time `json:"last_snapshot"`
	SnapshotBytes int64     `json:"snapshot_bytes"`
	Time          time.Time `json:"time"`
}

// Persistence fetches the data provider status (admin only).
func (c *Client) Persistence() (PersistenceStatus, error) {
	var out PersistenceStatus
	err := c.do("GET", "/api/admin/persistence", nil, &out)
	return out, err
}

// Backup downloads a full state snapshot — accounts, home directories and
// job history — as JSON (admin only).
func (c *Client) Backup() ([]byte, error) {
	var raw json.RawMessage
	if err := c.do("POST", "/api/admin/backup", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// RestoreBackup uploads a snapshot produced by Backup (admin only). The
// restore is strict: accounts colliding with existing ones abort it.
func (c *Client) RestoreBackup(snapshot []byte) error {
	return c.do("POST", "/api/admin/restore", bytes.NewReader(snapshot), nil)
}

// --- tenancy / usage -------------------------------------------------------

// DiskUsage is a user's home-directory standing. QuotaBytes is -1 when the
// user is unquota'd; the same convention (-1 = unlimited) holds for every
// bound in the usage document.
type DiskUsage struct {
	UsedBytes  int64 `json:"used_bytes"`
	QuotaBytes int64 `json:"quota_bytes"`
}

// StepUsage is a user's cumulative VM instruction consumption against their
// step budget.
type StepUsage struct {
	Used      int64 `json:"used"`
	Budget    int64 `json:"budget"`
	Remaining int64 `json:"remaining"`
}

// JobUsage is a user's concurrent-job standing.
type JobUsage struct {
	Active int   `json:"active"`
	Max    int64 `json:"max"`
}

// RateUsage is a user's effective API rate-limit parameters.
type RateUsage struct {
	PerSec float64 `json:"per_sec"`
	Burst  int     `json:"burst"`
}

// Usage is one user's point-in-time resource standing.
type Usage struct {
	User   string    `json:"user"`
	Disk   DiskUsage `json:"disk"`
	Steps  StepUsage `json:"steps"`
	Jobs   JobUsage  `json:"jobs"`
	Rate   RateUsage `json:"rate"`
	Weight int64     `json:"weight"`
}

// UsagePage is one page of the admin usage listing.
type UsagePage struct {
	Users []Usage `json:"users"`
	// NextCursor is "" on the last page; otherwise pass it to the next
	// AdminUsageList call to continue.
	NextCursor string `json:"next_cursor"`
}

// Limits mirrors the server's per-user limit set. In overrides, zero means
// "inherit the deployment default" and negative means "unlimited".
type Limits struct {
	QuotaBytes int64   `json:"quota_bytes"`
	StepBudget int64   `json:"step_budget"`
	MaxJobs    int     `json:"max_jobs"`
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      int     `json:"burst"`
	Weight     int64   `json:"weight"`
}

// LimitSpec is a partial limits update: nil fields are left untouched, so a
// single override can be changed without restating the rest.
type LimitSpec struct {
	QuotaBytes *int64   `json:"quota_bytes,omitempty"`
	StepBudget *int64   `json:"step_budget,omitempty"`
	MaxJobs    *int     `json:"max_jobs,omitempty"`
	RatePerSec *float64 `json:"rate_per_sec,omitempty"`
	Burst      *int     `json:"burst,omitempty"`
	Weight     *int64   `json:"weight,omitempty"`
}

// LimitsResult reports a user's stored overrides and their resolution
// against the deployment defaults.
type LimitsResult struct {
	User      string `json:"user"`
	Limits    Limits `json:"limits"`
	Effective Limits `json:"effective"`
}

// Usage fetches the caller's own resource standing.
func (c *Client) Usage() (Usage, error) {
	var out Usage
	err := c.do("GET", "/api/usage", nil, &out)
	return out, err
}

// AdminUsage fetches any user's resource standing (admin only).
func (c *Client) AdminUsage(user string) (Usage, error) {
	var out Usage
	err := c.do("GET", "/api/admin/users/"+url.PathEscape(user)+"/usage", nil, &out)
	return out, err
}

// AdminUsageList fetches one page of every user's usage (admin only).
// limit <= 0 uses the server default; cursor is "" for the first page.
func (c *Client) AdminUsageList(limit int, cursor string) (UsagePage, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	path := "/api/admin/users/usage"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out UsagePage
	err := c.do("GET", path, nil, &out)
	return out, err
}

// SetLimits updates a user's limit overrides (admin only). Only the non-nil
// fields of spec change; an all-nil spec is a read of the current standing.
func (c *Client) SetLimits(user string, spec LimitSpec) (LimitsResult, error) {
	var out LimitsResult
	err := c.doJSON("PUT", "/api/admin/users/"+url.PathEscape(user)+"/limits", spec, &out)
	return out, err
}
