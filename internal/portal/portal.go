// Package portal is the web interface of the system — the part of the paper
// the students actually touched. It exposes the backend (auth, per-user file
// manager, compiler, job distributor, cluster monitor) over HTTP as a JSON
// API plus a minimal HTML front page, satisfying the paper's requirements
// list: user authentication, intuitive navigation, file manipulation
// (browse, upload, download, copy, move, rename), and client access to
// compilation and execution of user programs on the cluster, including
// monitoring the standard streams and providing input.
package portal

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/jobs"
	"repro/internal/jsonenc"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/minic"
	"repro/internal/scheduler"
	"repro/internal/tenancy"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

// SessionCookie is the browser cookie carrying the session token.
const SessionCookie = "uhd_portal_session"

// Server glues the subsystems behind an http.Handler.
type Server struct {
	Auth    *auth.Service
	FS      *vfs.FS
	Tools   *toolchain.Service
	Jobs    *jobs.Store
	Sched   *scheduler.Scheduler
	Cluster *cluster.Cluster
	Log     *logging.Logger

	// MaxUploadBytes bounds a single upload.
	MaxUploadBytes int64
	// Metrics is the registry served at /api/metrics and /metrics.
	// NewServer gives every server its own registry; use SetMetrics to
	// share one across subsystems.
	Metrics *metrics.Registry

	mux     *http.ServeMux
	reqIDs  *ids.Random
	persist Persistence
	tenancy *tenancy.Accountant

	// accessEvery/accessN implement access-log sampling (SetAccessLogSampling).
	accessEvery atomic.Int64
	accessN     atomic.Uint64

	// langOnce/langBody cache the pre-marshaled /api/languages body; the
	// language set is fixed once the toolchain is wired.
	langOnce sync.Once
	langBody []byte
}

// NewServer wires the handler tree.
func NewServer(a *auth.Service, fs *vfs.FS, tools *toolchain.Service, store *jobs.Store,
	sched *scheduler.Scheduler, clus *cluster.Cluster, log *logging.Logger, maxUpload int64) *Server {
	if log == nil {
		log = logging.Discard()
	}
	if maxUpload <= 0 {
		maxUpload = 8 << 20
	}
	s := &Server{
		Auth: a, FS: fs, Tools: tools, Jobs: store, Sched: sched, Cluster: clus,
		Log: log, MaxUploadBytes: maxUpload, Metrics: metrics.NewRegistry(),
		reqIDs: ids.NewRandom("req", 8),
	}
	mux := http.NewServeMux()
	s.route(mux, "GET /", s.handleIndex)
	s.route(mux, "POST /api/register", s.handleRegister)
	s.route(mux, "POST /api/login", s.handleLogin)
	s.route(mux, "POST /api/logout", s.withAuth(s.handleLogout))
	s.route(mux, "GET /api/whoami", s.withAuth(s.handleWhoami))

	s.route(mux, "GET /api/files", s.withAuth(s.handleFileList))
	s.route(mux, "GET /api/files/content", s.withAuth(s.handleFileDownload))
	s.route(mux, "PUT /api/files/content", s.withAuth(s.handleFileUpload))
	s.route(mux, "POST /api/files/mkdir", s.withAuth(s.handleMkdir))
	s.route(mux, "POST /api/files/rename", s.withAuth(s.handleRename))
	s.route(mux, "POST /api/files/copy", s.withAuth(s.handleCopy))
	s.route(mux, "POST /api/files/delete", s.withAuth(s.handleDelete))
	s.route(mux, "POST /api/files/format", s.withAuth(s.handleFormat))

	s.route(mux, "GET /api/languages", s.withAuth(s.handleLanguages))
	s.route(mux, "POST /api/compile", s.withAuth(s.handleCompile))

	s.route(mux, "POST /api/jobs", s.withAuth(s.handleSubmit))
	s.route(mux, "GET /api/jobs", s.withAuth(s.handleJobList))
	s.route(mux, "GET /api/jobs/{id}", s.withAuth(s.handleJobGet))
	s.route(mux, "GET /api/jobs/{id}/events", s.withAuth(s.handleJobEvents))
	s.route(mux, "GET /api/jobs/{id}/trace", s.withAuth(s.handleJobTrace))
	s.route(mux, "POST /api/jobs/{id}/input", s.withAuth(s.handleJobInput))
	s.route(mux, "POST /api/jobs/{id}/cancel", s.withAuth(s.handleJobCancel))

	s.route(mux, "GET /api/cluster/nodes", s.withAuth(s.handleNodes))
	s.route(mux, "GET /api/cluster/stats", s.withAuth(s.handleStats))
	s.installTenancy(mux)
	s.installAdmin(mux)
	s.installPersistence(mux)
	s.installStandardMetrics()
	s.mux = mux
	return s
}

// installStandardMetrics publishes the live cluster/job gauges.
func (s *Server) installStandardMetrics() {
	reg := s.metricsRegistry()
	reg.RegisterFunc("cluster_nodes_total", func() int64 { return int64(s.Cluster.Size()) })
	reg.RegisterFunc("cluster_nodes_free", func() int64 { return int64(s.Cluster.FreeCount()) })
	reg.RegisterFunc("jobs_running", func() int64 {
		return int64(s.Jobs.Counts()[jobs.StateRunning])
	})
	reg.RegisterFunc("jobs_queued", s.Jobs.QueuedCount)
	reg.RegisterFunc("scheduler_dispatched_total", func() int64 { return s.Sched.Dispatched() })
	reg.RegisterFunc("scheduler_dispatch_latency_us_last", s.Sched.DispatchLatencyLastUS)
	reg.RegisterFunc("scheduler_dispatch_latency_us_sum", s.Sched.DispatchLatencySumUS)
	reg.RegisterFunc("scheduler_cancelled_running_total", s.Sched.CancelledWhileRunning)
	reg.RegisterFunc("auth_active_sessions", func() int64 { return int64(s.Auth.ActiveSessions()) })
	// The GC paces its cycles by the live heap: a smaller heap at the same
	// allocation rate means more cycles.
	reg.RegisterFunc("go_gc_cycles", runtimeGauge("/gc/cycles/total:gc-cycles"))
	reg.RegisterFunc("go_heap_live_bytes", runtimeGauge("/gc/heap/live:bytes"))
}

// runtimeGauge reads one of the Go runtime's uint64 metrics (package
// runtime/metrics) as a gauge.
func runtimeGauge(name string) metrics.GaugeFunc {
	return func() int64 {
		s := [1]rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(s[:])
		if s[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return int64(s[0].Value.Uint64())
	}
}

// SetMetrics replaces the server's registry — sharing one registry between
// the portal and the scheduler puts the scheduler's histograms on /metrics —
// and re-installs the standard gauges on it. Call before serving traffic.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	s.Metrics = reg
	s.installStandardMetrics()
}

// --- plumbing -----------------------------------------------------------------

// withAuth wraps a handler with session validation; the session rides in a
// cookie or an Authorization: Bearer header.
func (s *Server) withAuth(next func(http.ResponseWriter, *http.Request, *auth.Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := ""
		if c, err := r.Cookie(SessionCookie); err == nil {
			token = c.Value
		}
		if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
			token = strings.TrimPrefix(h, "Bearer ")
		}
		if token == "" {
			writeError(w, r, errf(http.StatusUnauthorized, CodeUnauthorized, "not logged in"))
			return
		}
		sess, err := s.Auth.Lookup(token)
		if err != nil {
			writeError(w, r, fromDomain(err))
			return
		}
		// Per-user token-bucket rate limiting, after the cached-credential
		// lookup (so the limiter keys on a verified identity) and before the
		// handler. Admins are exempt: throttling the operator mid-incident
		// would be self-defeating.
		if acct := s.tenancy; acct != nil && sess.Role < auth.RoleAdmin {
			if ok, retry := acct.Allow(sess.User); !ok {
				e := errf(http.StatusTooManyRequests, CodeRateLimited, "api rate limit exceeded")
				e.retryAfter = retry
				writeError(w, r, e)
				return
			}
		}
		next(w, r, sess)
	}
}

// decode reads a JSON body into v with a size cap.
func decode(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// --- auth handlers --------------------------------------------------------------

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User     string `json:"user"`
		Password string `json:"password"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	u, err := s.Auth.Register(req.User, req.Password, auth.RoleStudent)
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	s.FS.EnsureHome(u.Name)
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.Log.Infof("registered user %s", u.Name)
	s.writeJSON(w, http.StatusCreated, whoamiResponse{User: u.Name, Role: u.Role.String()})
}

// whoamiResponse answers /api/register and /api/whoami.
type whoamiResponse struct {
	User string `json:"user"`
	Role string `json:"role"`
}

// loginResponse answers /api/login.
type loginResponse struct {
	Token string `json:"token"`
	User  string `json:"user"`
	Role  string `json:"role"`
}

// statusResponse is the generic one-field acknowledgement.
type statusResponse struct {
	Status string `json:"status"`
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User     string `json:"user"`
		Password string `json:"password"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	sess, err := s.Auth.Login(req.User, req.Password)
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	s.FS.EnsureHome(sess.User)
	http.SetCookie(w, &http.Cookie{
		Name:     SessionCookie,
		Value:    sess.Token,
		Path:     "/",
		HttpOnly: true,
		SameSite: http.SameSiteLaxMode,
		Expires:  sess.Expires,
	})
	s.metricsRegistry().Counter("auth_logins_total").Inc()
	if s.Log.Enabled(logging.Info) {
		s.Log.Infof("user %s logged in (session %s)", sess.User, auth.FingerprintToken(sess.Token))
	}
	s.writeJSON(w, http.StatusOK, loginResponse{Token: sess.Token, User: sess.User, Role: sess.Role.String()})
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	s.Auth.Logout(sess.Token)
	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: "", Path: "/", MaxAge: -1})
	s.writeJSON(w, http.StatusOK, statusResponse{Status: "logged out"})
}

func (s *Server) handleWhoami(w http.ResponseWriter, _ *http.Request, sess *auth.Session) {
	s.writeJSON(w, http.StatusOK, whoamiResponse{User: sess.User, Role: sess.Role.String()})
}

// --- file manager handlers -------------------------------------------------------

func (s *Server) home(sess *auth.Session) *vfs.Home {
	return s.FS.EnsureHome(sess.User)
}

type fileInfoJSON struct {
	Name    string    `json:"name"`
	Path    string    `json:"path"`
	Dir     bool      `json:"dir"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

func toFileJSON(in vfs.Info) fileInfoJSON {
	return fileInfoJSON{Name: in.Name, Path: in.Path, Dir: in.Dir, Size: in.Size, ModTime: in.ModTime}
}

func (s *Server) handleFileList(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	path := queryParam(r, "path")
	infos, err := s.home(sess).List(path)
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	out := make([]fileInfoJSON, len(infos))
	for i, in := range infos {
		out[i] = toFileJSON(in)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFileDownload(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	path := queryParam(r, "path")
	data, err := s.home(sess).ReadFile(path)
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// uploadResponse answers /api/files/content uploads and format-in-place.
type uploadResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// pathResponse acknowledges a single-path mutation.
type pathResponse struct {
	Path string `json:"path"`
}

// srcDstResponse acknowledges a rename or copy.
type srcDstResponse struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

func (s *Server) handleFileUpload(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	path := queryParam(r, "path")
	if path == "" {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "missing path"))
		return
	}
	home := s.home(sess)
	// Create parent directories the way file managers do.
	if cp, err := vfs.Clean(path); err == nil {
		if idx := strings.LastIndex(cp, "/"); idx > 0 {
			if err := home.MkdirAll(cp[:idx]); err != nil {
				writeError(w, r, fromDomain(err))
				return
			}
		}
	}
	n, err := home.Upload(path, r.Body, s.MaxUploadBytes)
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.metricsRegistry().Counter("files_uploaded_total").Inc()
	if s.Log.Enabled(logging.Info) {
		s.Log.Infof("user %s uploaded %s (%d bytes)", sess.User, path, n)
	}
	s.writeJSON(w, http.StatusCreated, uploadResponse{Path: path, Bytes: n})
}

func (s *Server) handleMkdir(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	var req struct {
		Path string `json:"path"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	if err := s.home(sess).MkdirAll(req.Path); err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.writeJSON(w, http.StatusCreated, pathResponse{Path: req.Path})
}

func (s *Server) handleRename(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	var req struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	if err := s.home(sess).Rename(req.Src, req.Dst); err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.writeJSON(w, http.StatusOK, srcDstResponse{Src: req.Src, Dst: req.Dst})
}

func (s *Server) handleCopy(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	var req struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	if err := s.home(sess).Copy(req.Src, req.Dst); err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.writeJSON(w, http.StatusOK, srcDstResponse{Src: req.Src, Dst: req.Dst})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	var req struct {
		Path      string `json:"path"`
		Recursive bool   `json:"recursive"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	if err := s.home(sess).Remove(req.Path, req.Recursive); err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.writeJSON(w, http.StatusOK, pathResponse{Path: req.Path})
}

// handleFormat pretty-prints a minic source file in place — the file
// manager's "format source" action.
func (s *Server) handleFormat(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	var req struct {
		Path string `json:"path"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	home := s.home(sess)
	src, err := home.ReadFile(req.Path)
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	formatted, err := minic.Format(string(src))
	if err != nil {
		writeError(w, r, errf(http.StatusUnprocessableEntity, CodeCompileFailed, err.Error()))
		return
	}
	if err := home.WriteFile(req.Path, []byte(formatted)); err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.writeJSON(w, http.StatusOK, uploadResponse{Path: req.Path, Bytes: int64(len(formatted))})
}

// --- compile and job handlers ----------------------------------------------------

// handleLanguages serves the pre-marshaled language list: the body is built
// once per server (the toolchain's language set is fixed at wiring time) and
// every request after that is a header write plus one copy.
func (s *Server) handleLanguages(w http.ResponseWriter, _ *http.Request, _ *auth.Session) {
	s.langOnce.Do(func() {
		b, err := json.Marshal(s.Tools.Languages())
		if err != nil { // unreachable for []string; keep the body well-formed anyway
			b = []byte("[]")
		}
		s.langBody = append(b, '\n')
	})
	writeBody(w, http.StatusOK, s.langBody)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	var req struct {
		Path     string `json:"path"`
		Language string `json:"language"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	src, err := s.home(sess).ReadFile(req.Path)
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	lang := req.Language
	if lang == "" || lang == "auto" {
		lang = s.Tools.DetectLanguage(req.Path)
		if lang == "" {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "cannot detect language; pass one explicitly"))
			return
		}
	}
	res, err := s.Tools.Compile(r.Context(), lang, req.Path, string(src))
	if err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	if !res.OK {
		diags := make([]string, len(res.Diagnostics))
		for i, d := range res.Diagnostics {
			diags[i] = d.String()
		}
		e := errf(http.StatusUnprocessableEntity, CodeCompileFailed, "compilation failed")
		e.details = map[string]interface{}{"diagnostics": diags}
		writeError(w, r, e)
		return
	}
	s.writeJSON(w, http.StatusOK, compileResponse{
		OK: true, Artifact: res.Artifact.ID, Language: lang, Cached: res.Cached,
	})
}

// compileResponse answers a successful /api/compile.
type compileResponse struct {
	OK       bool   `json:"ok"`
	Artifact string `json:"artifact"`
	Language string `json:"language"`
	Cached   bool   `json:"cached"`
}

// jobJSON documents the job wire shape. The serving path renders it with the
// hand-rolled appendJob encoder; this struct (and toJobJSON) is kept as the
// executable reference the encode parity test checks appendJob against.
type jobJSON struct {
	ID         string    `json:"id"`
	Owner      string    `json:"owner"`
	SourcePath string    `json:"source_path"`
	Language   string    `json:"language"`
	Ranks      int       `json:"ranks"`
	State      string    `json:"state"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started,omitempty"`
	Finished   time.Time `json:"finished,omitempty"`
	Failure    string    `json:"failure,omitempty"`
	Nodes      []string  `json:"nodes,omitempty"`
}

func toJobJSON(snap jobs.Snapshot) jobJSON {
	nodes := make([]string, len(snap.Nodes))
	for i, n := range snap.Nodes {
		nodes[i] = n.String()
	}
	return jobJSON{
		ID:         snap.ID,
		Owner:      snap.Spec.Owner,
		SourcePath: snap.Spec.SourcePath,
		Language:   snap.Spec.Language,
		Ranks:      snap.Spec.Ranks,
		State:      snap.State.String(),
		Submitted:  snap.Submitted,
		Started:    snap.Started,
		Finished:   snap.Finished,
		Failure:    snap.Failure,
		Nodes:      nodes,
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	var req struct {
		SourcePath string `json:"source_path"`
		Language   string `json:"language"`
		Ranks      int    `json:"ranks"`
		GPU        bool   `json:"gpu"`
		Stdin      string `json:"stdin"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	if req.Language == "" {
		req.Language = "auto"
	}
	if req.Ranks == 0 {
		req.Ranks = 1
	}
	job, err := s.Jobs.Submit(jobs.Spec{
		Owner:      sess.User,
		SourcePath: req.SourcePath,
		Language:   req.Language,
		Ranks:      req.Ranks,
		GPU:        req.GPU,
		Stdin:      req.Stdin,
	})
	if err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if rid := requestIDOf(w); rid != "" {
		job.Trace().Root().Annotate("request_id", rid)
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.metricsRegistry().Counter("jobs_submitted_total").Inc()
	if s.Log.Enabled(logging.Info) {
		s.Log.Infof("user %s submitted %s as %s (%d ranks)", sess.User, req.SourcePath, job.ID, req.Ranks)
	}
	s.writeJob(w, http.StatusAccepted, job)
}

// jobForRequest fetches the job and enforces ownership (faculty and admin
// may view any job).
func (s *Server) jobForRequest(r *http.Request, sess *auth.Session) (*jobs.Job, *apiErr) {
	id := r.PathValue("id")
	job, err := s.Jobs.Get(id)
	if err != nil {
		return nil, fromDomain(err)
	}
	if job.Spec.Owner != sess.User && sess.Role == auth.RoleStudent {
		return nil, errf(http.StatusForbidden, CodeForbidden,
			fmt.Sprintf("job %s belongs to %s", id, job.Spec.Owner))
	}
	return job, nil
}

// jobPageJSON is the paginated /api/jobs response. NextCursor is "" on the
// last page; otherwise pass it back as ?cursor= to fetch the next page.
type jobPageJSON struct {
	Jobs       []jobJSON `json:"jobs"`
	NextCursor string    `json:"next_cursor"`
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	owner := sess.User
	if queryParam(r, "all") == "1" && sess.Role != auth.RoleStudent {
		owner = ""
	}
	var state *jobs.State
	if name := queryParam(r, "state"); name != "" {
		st, err := jobs.ParseState(name)
		if err != nil {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
			return
		}
		state = &st
	}
	limit := 0
	if raw := queryParam(r, "limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 || n > 500 {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "limit must be 1..500"))
			return
		}
		limit = n
	}
	pg := jobPages.Get().(*jobPage)
	snaps, next, err := s.Jobs.ListPageInto(pg.snaps[:0], owner, state, limit, queryParam(r, "cursor"))
	pg.snaps = snaps[:0]
	if err != nil {
		jobPages.Put(pg)
		writeError(w, r, fromDomain(err))
		return
	}
	rb := getBuf()
	b := append(rb.b[:0], `{"jobs":[`...)
	for i := range snaps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJob(b, &snaps[i])
	}
	b = append(b, `],"next_cursor":`...)
	b = jsonenc.AppendString(b, next)
	rb.b = append(b, '}', '\n')
	jobPages.Put(pg)
	writeRaw(w, http.StatusOK, rb)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	job, e := s.jobForRequest(r, sess)
	if e != nil {
		writeError(w, r, e)
		return
	}
	s.writeJob(w, http.StatusOK, job)
}

// handleJobTrace serves the span tree recorded across the job's lifecycle —
// the primary debugging artifact for "why was my run slow" — as
// {"id","state","trace"}, encoded straight from the trace's log into a
// pooled buffer. The state is read before the trace: the store finishes the
// trace in the critical section that makes the state terminal, so a
// terminal state always comes with a closed root that names it.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	job, e := s.jobForRequest(r, sess)
	if e != nil {
		writeError(w, r, e)
		return
	}
	tr := job.Trace()
	if tr == nil {
		writeError(w, r, errf(http.StatusNotFound, CodeNotFound, "no trace recorded for job "+job.ID))
		return
	}
	rb := getBuf()
	b := append(rb.b[:0], `{"id":`...)
	b = jsonenc.AppendString(b, job.ID)
	b = append(b, `,"state":`...)
	b = jsonenc.AppendString(b, job.State().String())
	b = append(b, `,"trace":`...)
	b = tr.AppendJSON(b)
	rb.b = append(b, '}', '\n')
	writeRaw(w, http.StatusOK, rb)
}

func (s *Server) handleJobInput(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	job, e := s.jobForRequest(r, sess)
	if e != nil {
		writeError(w, r, e)
		return
	}
	var req struct {
		Data string `json:"data"`
	}
	if err := decode(r, &req); err != nil {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	if job.State().Terminal() {
		writeError(w, r, errf(http.StatusConflict, CodeJobTerminal, "job already finished"))
		return
	}
	if err := job.Stdin.Feed([]byte(req.Data)); err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	s.writeJSON(w, http.StatusOK, fedResponse{Fed: len(req.Data)})
}

// fedResponse acknowledges stdin input.
type fedResponse struct {
	Fed int `json:"fed"`
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	job, e := s.jobForRequest(r, sess)
	if e != nil {
		writeError(w, r, e)
		return
	}
	if err := s.Sched.Cancel(job.ID); err != nil {
		writeError(w, r, errf(http.StatusConflict, CodeJobTerminal, err.Error()))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.writeJSON(w, http.StatusOK, cancelResponse{ID: job.ID, State: "cancelled"})
}

// cancelResponse acknowledges a cancellation.
type cancelResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// --- cluster handlers -------------------------------------------------------------

func (s *Server) handleNodes(w http.ResponseWriter, _ *http.Request, _ *auth.Session) {
	nodes := s.Cluster.Nodes()
	type nodeJSON struct {
		ID    string `json:"id"`
		Cores int    `json:"cores"`
		MemMB int    `json:"memory_mb"`
		GPU   bool   `json:"gpu"`
		State string `json:"state"`
		Job   string `json:"job,omitempty"`
	}
	out := make([]nodeJSON, len(nodes))
	for i, n := range nodes {
		out[i] = nodeJSON{
			ID: n.ID.String(), Cores: n.Cores, MemMB: n.MemoryMB,
			GPU: n.GPU, State: n.State.String(), Job: n.JobID,
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// statsResponse is the cluster overview at /api/cluster/stats.
type statsResponse struct {
	TotalNodes  int            `json:"total_nodes"`
	FreeNodes   int            `json:"free_nodes"`
	Utilization float64        `json:"utilization"`
	Jobs        map[string]int `json:"jobs"`
	Dispatched  int64          `json:"dispatched"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, _ *auth.Session) {
	counts := s.Jobs.Counts()
	byState := map[string]int{}
	for st, n := range counts {
		byState[st.String()] = n
	}
	s.writeJSON(w, http.StatusOK, statsResponse{
		TotalNodes:  s.Cluster.Size(),
		FreeNodes:   s.Cluster.FreeCount(),
		Utilization: s.Cluster.Utilization(),
		Jobs:        byState,
		Dispatched:  s.Sched.Dispatched(),
	})
}
