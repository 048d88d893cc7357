package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/logging"
	"repro/internal/trace"
)

const (
	password = "portalbench-pass"
	// settleTimeout bounds the wait for a phase's jobs to finish after it.
	settleTimeout = 60 * time.Second
)

// round is one boot of the system: set up, measure one phase, verify,
// tear down. A run is several rounds, so set-up is timed several times and
// each phase starts from a fresh store.
type round struct {
	w        *workload
	seed     int64
	dataRoot string

	sys       *core.System
	srv       *http.Server
	serveDone chan struct{}
	dir       string
	base      string
	clients   [2]*client
	accts     []account
	byToken   map[string]string
	tr        *tracer    // nil in untraced rounds
	seeded    [][]string // dashboard: finished job IDs by account

	mu   sync.Mutex // guards res, jobs and byToken while the phase runs
	res  roundResult
	jobs []*jobRec
}

type account struct{ name, token string }

// roundResult is what one round measured, reduced to samples so that the
// rounds kept for the report add little to the heap later rounds measure.
type roundResult struct {
	setup     time.Duration
	wall      time.Duration // the measured phase
	ops       int
	failed    map[int]string // op index → first failure
	requests  int
	non2xx    int
	limited   int // 429 responses
	heapLive  float64
	cpu       time.Duration
	allocated uint64
	gcCycles  uint64
	delta     counters // over the phase, taken once its jobs finished
	wakes     int64

	// Traced rounds only: the spans, and what the layer metrics take from
	// them (durations in µs, self times in ns by layer).
	spans   []span
	server  map[string]*dist // by routeClass: read, submit, upload
	client  dist             // client round trip less the server's time
	admit   dist
	barrier dist
	self    map[string]int64

	// Samples, in ms unless named otherwise; job samples cover the jobs
	// that passed their check.
	reads      dist // intended send → body read
	lag        dist // intended send → actual send
	turnaround dist
	submitAck  dist // intended send → 202 read
	firstOut   dist // submit sent → first output event (watched jobs)
	queue      dist // submitted → started, less compile
	compileUS  dist
	run        dist // started → finished
	delivery   dist // finished → done received (watched jobs)
	unattr     dist // turnaround less its phases
	jobsOK     int
	watched    int
	outBytes   int
	dropped    int64
	runSecs    float64
}

// jobRec follows one submitted job.
type jobRec struct {
	id       string
	op       int
	intended time.Time
	sent     time.Time // submit request sent
	acked    time.Time // 202 read
	watched  bool
	w        watchResult
	check    func(state string, out []byte, dropped int64) error
	opSpan   int // traced: index of the op span, and of the watch span (-1 if none)
	watch    int

	// Filled once the job finished.
	snap     jobs.Snapshot
	outBytes int
	dropped  int64
	phases   phases
}

// turnaround is intended submit → done: the SSE done event where the job
// is watched, the job's recorded finish where it is not.
func (j *jobRec) turnaround() time.Duration {
	if j.watched {
		return j.w.done.Sub(j.intended)
	}
	return j.snap.Finished.Sub(j.intended)
}

// counters are the program's own counters the layer metrics difference.
type counters struct {
	walRecords, walBytes, batches, fsyncs int64 // Provider.Status
	compiles, hits, dedups                int64 // Tools.Stats
	dispatched, latSumUS                  int64 // scheduler
	sseFlushes, sseEvents                 int64 // System.Metrics
	steps                                 int64 // Tenancy.Steps over the accounts
}

func (a counters) sub(b counters) counters { return a.plus(b, -1) }
func (a counters) add(b counters) counters { return a.plus(b, 1) }

func (a counters) plus(b counters, k int64) counters {
	return counters{
		walRecords: a.walRecords + k*b.walRecords, walBytes: a.walBytes + k*b.walBytes,
		batches: a.batches + k*b.batches, fsyncs: a.fsyncs + k*b.fsyncs,
		compiles: a.compiles + k*b.compiles, hits: a.hits + k*b.hits, dedups: a.dedups + k*b.dedups,
		dispatched: a.dispatched + k*b.dispatched, latSumUS: a.latSumUS + k*b.latSumUS,
		sseFlushes: a.sseFlushes + k*b.sseFlushes, sseEvents: a.sseEvents + k*b.sseEvents,
		steps: a.steps + k*b.steps,
	}
}

func (r *round) counters() counters {
	s := r.sys
	prov, tools := s.Provider.Status(), s.Tools.Stats()
	c := counters{
		walRecords: prov.WALRecords, walBytes: prov.WALBytes, batches: prov.Batches, fsyncs: prov.Fsyncs,
		compiles: tools.Compiles, hits: tools.CacheHits, dedups: tools.Dedups,
		dispatched: s.Sched.Dispatched(),
		latSumUS:   s.Sched.DispatchLatencySumUS(),
		sseEvents:  s.Metrics.Snapshot()["sse_events_total"],
	}
	// Looked up by name rather than through Registry.Histogram, which would
	// register it with default buckets if no watch had run yet.
	for _, h := range s.Metrics.Histograms() {
		if h.Name() == "sse_flush_seconds" {
			c.sseFlushes += int64(h.Count())
		}
	}
	for _, a := range r.accts {
		c.steps += s.Tenancy.Steps(a.name)
	}
	return c
}

// runRound boots a system, sets it up, measures one phase of n ops and
// verifies every job the phase submitted.
func runRound(w *workload, seed int64, n int, traced bool, dataRoot string) (*roundResult, error) {
	r := &round{w: w, seed: seed, dataRoot: dataRoot, byToken: map[string]string{}}
	r.res.failed = map[int]string{}
	start := time.Now()
	defer r.teardown()
	if err := r.boot(traced); err != nil {
		return nil, err
	}
	if err := r.setupAccounts(); err != nil {
		return nil, fmt.Errorf("setting up accounts: %w", err)
	}
	if err := w.setup(r); err != nil {
		return nil, fmt.Errorf("setting up %s: %w", w.name, err)
	}
	r.res.setup = time.Since(start)

	before := r.counters()
	cpu0, rt0 := cpuTime(), readRuntime()
	phaseStart := time.Now()
	if r.tr != nil {
		r.tr.t0 = phaseStart
		r.tr.on.Store(true)
	}
	w.phase(r, phaseStart, n)
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	cpu1, rt1 := cpuTime(), readRuntime()
	r.res.cpu = cpu1 - cpu0
	r.res.allocated = rt1.allocs - rt0.allocs
	r.res.gcCycles = rt1.cycles - rt0.cycles
	runtime.GC()
	r.res.heapLive = float64(readRuntime().live)

	r.settle()
	r.res.delta = r.counters().sub(before)
	if r.tr != nil {
		r.res.wakes = r.tr.wakes.Load()
		link(r.tr.spans)
		r.res.absorb(r.tr.spans)
	}
	// A copy: a pointer into r would keep the round's whole system alive.
	res := r.res
	return &res, nil
}

func (r *round) boot(traced bool) error {
	dir, err := os.MkdirTemp(r.dataRoot, "wal-")
	if err != nil {
		return err
	}
	r.dir = dir
	cfg := config.Default()
	cfg.Persistence.Mode = "durable"
	cfg.Persistence.Dir = dir
	// The WAL lives under the run's own directory, as everything the
	// benchmark writes does. On a 2-vCPU VM with an ext4 virtio disk a
	// sparse fsync took 5 ms at the median and 13 ms at p99, and flood
	// throughput flipped between 2.5k and 4.5k jobs/s from run to run: the
	// numbers measured the disk. So every acknowledged write still crosses
	// the provider's Sync barrier and is written to the WAL file before the
	// 202, but the flush to the device is skipped, which is what fsync costs
	// on a RAM-backed filesystem.
	cfg.Persistence.Fsync = "never"
	// portald logs at info by default; the lines are formatted but
	// discarded, so the access-log cost is measured without a terminal.
	logger := logging.New(io.Discard, "portal", logging.Info)
	sys, err := core.NewSystem(cfg, core.Options{Policy: "pack", Logger: logger})
	if err != nil {
		return err
	}
	r.sys = sys
	var h http.Handler = sys.Handler()
	if traced {
		r.tr = &tracer{}
		h = r.tr.instrument(sys, func(token string) string {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.byToken[token]
		})
	}
	if _, err := sys.Recover(); err != nil {
		return fmt.Errorf("recovering %s: %w", dir, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sys.Start()
	r.srv = &http.Server{Handler: h}
	r.serveDone = make(chan struct{})
	go func() {
		defer close(r.serveDone)
		r.srv.Serve(ln)
	}()
	r.base = "http://" + ln.Addr().String()
	for i := range r.clients {
		r.clients[i] = newClient(r.base)
	}
	return nil
}

func (r *round) teardown() {
	for _, c := range r.clients {
		if c != nil {
			c.close()
		}
	}
	if r.srv != nil {
		r.srv.Close()
		<-r.serveDone
	}
	if r.sys != nil {
		r.sys.Stop()
		r.sys.Provider.Close()
	}
	os.RemoveAll(r.dir)
}

// setupAccounts registers and logs in the workload's accounts and uploads
// each one's source.
func (r *round) setupAccounts() error {
	c := r.clients[0]
	for i := 0; i < r.w.accounts; i++ {
		name := fmt.Sprintf("%s%02d", r.w.prefix, i)
		cred := map[string]string{"user": name, "password": password}
		if res, err := c.postJSON("/api/register", "", cred); err != nil || res.status != http.StatusCreated {
			return httpErr("register "+name, res, err)
		}
		res, err := c.postJSON("/api/login", "", cred)
		if err != nil || res.status != http.StatusOK {
			return httpErr("login "+name, res, err)
		}
		var login struct{ Token string }
		if err := jsonUnmarshal(res.body, &login); err != nil {
			return err
		}
		path, src := r.w.source(name)
		if res, err := c.do(http.MethodPut, "/api/files/content?path="+path, login.Token, []byte(src)); err != nil || !res.ok() {
			return httpErr("upload "+path, res, err)
		}
		r.accts = append(r.accts, account{name: name, token: login.Token})
		r.mu.Lock()
		r.byToken[login.Token] = name
		r.mu.Unlock()
	}
	return nil
}

// runSetupJob submits one job during set-up and returns its ID.
func (r *round) runSetupJob(a account, path string, ranks int) (string, error) {
	c := r.clients[0]
	res, err := c.postJSON("/api/jobs", a.token, submitReq{SourcePath: path, Ranks: ranks})
	if err != nil || res.status != http.StatusAccepted {
		return "", httpErr("submit "+path, res, err)
	}
	var job struct{ ID string }
	if err := jsonUnmarshal(res.body, &job); err != nil {
		return "", err
	}
	return job.ID, nil
}

// waitJobs blocks until every listed job is terminal and succeeded.
func (r *round) waitJobs(ids []string) error {
	deadline, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	for _, id := range ids {
		job, err := r.sys.Jobs.Get(id)
		if err != nil {
			return err
		}
		if !finished(job, deadline.Done()) {
			return fmt.Errorf("set-up job %s did not finish", id)
		}
		if st := job.State(); st != jobs.StateSucceeded {
			return fmt.Errorf("set-up job %s ended %s", id, st)
		}
	}
	return nil
}

type submitReq struct {
	SourcePath string `json:"source_path"`
	Ranks      int    `json:"ranks"`
}

func httpErr(what string, res response, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return fmt.Errorf("%s: status %d: %s", what, res.status, clip(res.body))
}

// parallel runs fn on both workers and waits for them.
func (r *round) parallel(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// op is one generator operation in flight: its client-side spans are kept
// locally and recorded with the op when it ends.
type op struct {
	i        int
	intended time.Time
	sent     time.Time     // first request sent
	read     time.Duration // dashboard: a successful read's latency
	spans    []span        // recorded with the op as their parent
	failed   string
	job      *jobRec
}

// request accounts one completed HTTP call of the op and reports whether
// it succeeded; a transport error or a non-2xx status fails the op.
func (r *round) request(o *op, name string, res response, err error) bool {
	if o.sent.IsZero() {
		o.sent = res.sent
	}
	if r.tr != nil && !res.sent.IsZero() {
		end := res.recv
		if end.IsZero() {
			end = time.Now()
		}
		o.spans = append(o.spans, span{Name: name, Parent: -1, key: res.rid,
			Start: r.tr.ns(res.sent), End: r.tr.ns(end)})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.requests++
	switch {
	case err != nil:
		o.fail(fmt.Sprintf("%s: %v", name, err))
		return false
	case !res.ok():
		r.res.non2xx++
		if res.status == http.StatusTooManyRequests {
			r.res.limited++
		}
		o.fail(fmt.Sprintf("%s: status %d: %s", name, res.status, clip(res.body)))
		return false
	}
	return true
}

func (o *op) fail(reason string) {
	if o.failed == "" {
		o.failed = reason
	}
}

// submit posts the job and records its acknowledgement.
func (r *round) submit(c *client, o *op, a account, path string, ranks int, watched bool,
	check func(string, []byte, int64) error) *jobRec {
	res, err := c.postJSON("/api/jobs", a.token, submitReq{SourcePath: path, Ranks: ranks})
	if !r.request(o, "request", res, err) {
		return nil
	}
	var job struct{ ID string }
	if err := jsonUnmarshal(res.body, &job); err != nil || job.ID == "" {
		o.fail(fmt.Sprintf("submit response %q", clip(res.body)))
		return nil
	}
	j := &jobRec{id: job.ID, op: o.i, intended: o.intended, sent: res.sent, acked: res.recv,
		watched: watched, check: check, opSpan: -1, watch: -1}
	o.job = j
	return j
}

// watchJob follows the job's SSE stream to its done event.
func (r *round) watchJob(c *client, o *op, a account, j *jobRec) {
	w, res, err := c.watch(j.id, a.token)
	j.w = w
	if r.request(o, "watch", res, err) {
		j.watch = len(o.spans) - 1
	}
}

// endOp records the op: its span tree when traced, its job, its failure.
func (r *round) endOp(o *op, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.ops++
	if o.failed != "" {
		r.res.failed[o.i] = o.failed
	}
	if !o.sent.IsZero() {
		r.res.lag.add(ms(o.sent.Sub(o.intended)))
	}
	if o.read > 0 && o.failed == "" {
		r.res.reads.add(ms(o.read))
	}
	if o.job != nil {
		r.jobs = append(r.jobs, o.job)
	}
	if r.tr == nil {
		return
	}
	jobID := ""
	if o.job != nil {
		jobID = o.job.id
	}
	r.tr.mu.Lock()
	base := len(r.tr.spans)
	r.tr.spans = append(r.tr.spans, span{Name: "op", Parent: -1, Job: jobID,
		Start: r.tr.ns(o.intended), End: r.tr.ns(end)})
	for _, s := range o.spans {
		s.Parent = base
		s.Job = jobID
		r.tr.spans = append(r.tr.spans, s)
	}
	r.tr.mu.Unlock()
	if o.job != nil {
		o.job.opSpan = base
		if o.job.watch >= 0 {
			o.job.watch += base + 1
		}
	}
}

// settle waits for every job of the phase to finish, runs its workload's
// correctness check, and splits its turnaround into phases from the job
// record and trace. Everything here is read through Go calls after the
// measured phase, so it adds nothing to the measurement.
func (r *round) settle() {
	s := &r.res
	deadline, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	for _, j := range r.jobs {
		if err := r.settleJob(j, deadline.Done()); err != nil {
			if _, seen := s.failed[j.op]; !seen {
				s.failed[j.op] = fmt.Sprintf("job %s: %v", j.id, err)
			}
			continue
		}
		s.jobsOK++
		s.turnaround.add(ms(j.turnaround()))
		s.submitAck.add(ms(j.acked.Sub(j.intended)))
		s.queue.add(ms(j.snap.Started.Sub(j.snap.Submitted) - j.phases.compile))
		s.compileUS.add(float64(j.phases.compile.Nanoseconds()) / 1e3)
		rt := j.snap.Finished.Sub(j.snap.Started)
		s.run.add(ms(rt))
		s.runSecs += rt.Seconds()
		if j.watched {
			s.watched++
			if !j.w.firstOut.IsZero() {
				s.firstOut.add(ms(j.w.firstOut.Sub(j.sent)))
			}
			s.delivery.add(ms(j.phases.delivery))
		}
		s.outBytes += j.outBytes
		s.dropped += j.dropped
		s.unattr.add(ms(unattributed(j.turnaround(), j.phases)))
	}
}

func (r *round) settleJob(j *jobRec, deadline <-chan struct{}) error {
	job, err := r.sys.Jobs.Get(j.id)
	if err != nil {
		return err
	}
	if !finished(job, deadline) {
		return errors.New("did not finish")
	}
	j.snap = job.Snapshot()
	state, out, dropped := j.w.state, j.w.output, j.w.dropped
	if !j.watched {
		state = j.snap.State.String()
		out, dropped = readOutput(job)
	}
	j.outBytes, j.dropped = len(out), dropped
	if err := j.check(state, out, dropped); err != nil {
		return err
	}
	p, st, err := jobPhases(j, job.Trace().Snapshot())
	if err != nil {
		return err
	}
	j.phases = p
	if r.tr != nil && j.opSpan >= 0 {
		parent := j.opSpan
		if j.watch >= 0 {
			parent = j.watch
		}
		r.tr.mu.Lock()
		defer r.tr.mu.Unlock()
		for k, n := range jobSpanNames {
			r.tr.spans = append(r.tr.spans, span{Name: n.bench, Parent: parent, Job: j.id,
				Start: r.tr.ns(st[k].start), End: r.tr.ns(st[k].end)})
		}
	}
	return nil
}

// jobSpanNames maps the job trace's spans to the benchmark's span names.
var jobSpanNames = [4]struct{ trace, bench string }{
	{"queued", "queue"}, {"dispatch", "dispatch"}, {"compile", "compile"}, {"running", "run"},
}

// jobPhases splits a finished job's turnaround using its record and the
// queued, dispatch, compile and running spans of its trace.
func jobPhases(j *jobRec, tr trace.SpanJSON) (phases, [4]spanTimes, error) {
	var st [4]spanTimes
	var found [4]bool
	for _, ch := range tr.Children {
		for k, n := range jobSpanNames {
			if ch.Name == n.trace {
				st[k], found[k] = spanTimes{ch.Start, ch.End}, true
			}
		}
	}
	for k, ok := range found {
		if !ok {
			return phases{}, st, fmt.Errorf("trace lacks a %s span", jobSpanNames[k].trace)
		}
	}
	p := phases{
		intendedToSubmitted: j.snap.Submitted.Sub(j.intended),
		queued:              st[0].dur() + st[1].dur(),
		compile:             st[2].dur(),
		run:                 st[3].dur(),
	}
	if j.watched {
		p.delivery = j.w.done.Sub(j.snap.Finished)
	}
	return p, st, nil
}

type spanTimes struct{ start, end time.Time }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func jsonUnmarshal(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding %q: %w", clip(b), err)
	}
	return nil
}

func (s spanTimes) dur() time.Duration { return s.end.Sub(s.start) }

// finished blocks until the job is terminal or the deadline passes. The
// store cancels a job's context at its terminal transition.
func finished(job *jobs.Job, deadline <-chan struct{}) bool {
	select {
	case <-job.Context().Done():
		return true
	case <-deadline:
		return false
	}
}

// readOutput reads a finished job's retained output through a stream
// watcher, the way the SSE handler does.
func readOutput(job *jobs.Job) ([]byte, int64) {
	w := job.Stdout.Watch(0)
	defer w.Close()
	var out []byte
	var dropped int64
	for {
		ev, ok := w.TryNext(64 << 10)
		if !ok {
			return out, dropped
		}
		out = append(out, ev.Data...)
		dropped += ev.Dropped
	}
}

// runtimeSample reads the Go runtime's allocation, GC and live-heap
// counters.
type runtimeSample struct{ allocs, cycles, live uint64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	var out runtimeSample
	for i, p := range []*uint64{&out.allocs, &out.cycles, &out.live} {
		if s[i].Value.Kind() == metrics.KindUint64 {
			*p = s[i].Value.Uint64()
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
