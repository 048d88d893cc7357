// Package jobs defines the portal's job model: what a user submits (a source
// file, a language, a rank count, optional stdin), the lifecycle it moves
// through (queued → compiling → running → succeeded/failed/cancelled), its
// captured standard streams, and the store the portal and scheduler share.
//
// Every job owns a context.Context created at submission. The context is
// cancelled — with a cause naming the terminal state and reason — the moment
// the job reaches a terminal state, so every layer of the pipeline (compiler,
// VM interpreter loop, MPI runtime) can observe cancellation and unwind.
// A job that ended without a cancel then gives its context up for one
// shared, already-cancelled context, so a finished job keeps only its
// record.
//
// The store is built for concurrent traffic: jobs live in hash-sharded maps
// so lookups on different jobs never contend, per-state counts are atomics
// so Counts is O(1), and a FIFO queued-index lets the scheduler walk exactly
// the jobs that are waiting (ScanQueued) instead of snapshotting every
// non-terminal job per pass.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dataprovider"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
)

// State is a job lifecycle state.
type State int

// Job states, in normal progression order.
const (
	StateQueued State = iota
	StateCompiling
	StateRunning
	StateSucceeded
	StateFailed
	StateCancelled
)

// ParseState is the inverse of String; it rejects unknown names.
func ParseState(name string) (State, error) {
	for s := StateQueued; s <= StateCancelled; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("jobs: unknown state %q", name)
}

// String names the state as the portal displays it.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateCompiling:
		return "compiling"
	case StateRunning:
		return "running"
	case StateSucceeded:
		return "succeeded"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// validNext enumerates the allowed transitions. Compiling and running jobs
// may move back to queued — the requeue path crash recovery uses when the
// process that was executing them died.
var validNext = map[State][]State{
	StateQueued:    {StateCompiling, StateCancelled, StateFailed},
	StateCompiling: {StateRunning, StateFailed, StateCancelled, StateQueued},
	StateRunning:   {StateSucceeded, StateFailed, StateCancelled, StateQueued},
}

// Errors returned by the store.
var (
	ErrNotFound      = errors.New("jobs: job not found")
	ErrBadTransition = errors.New("jobs: invalid state transition")
	ErrQueueFull     = errors.New("jobs: queue is full")
	ErrBadCursor     = errors.New("jobs: unknown list cursor")
)

// ErrCancelled is the cancellation cause recorded on a job's context when it
// is cancelled; context.Cause wraps it with the recorded reason.
var ErrCancelled = errors.New("jobs: job cancelled")

// Spec is what the user submits.
type Spec struct {
	// Owner is the submitting username.
	Owner string
	// SourcePath is the path of the source file within the owner's home.
	SourcePath string
	// Language is the toolchain language id.
	Language string
	// Ranks is the requested parallel width (1 = sequential).
	Ranks int
	// GPU requests placement on GPU-equipped nodes only.
	GPU bool
	// Stdin is pre-supplied input; interactive input can be fed later.
	Stdin string
	// StepBudget overrides the per-rank instruction budget when positive.
	StepBudget int64
}

// Job is a submitted job and its runtime record.
type Job struct {
	ID   string
	Spec Spec

	ctx    context.Context // guarded by mu: the terminal transition swaps it
	cancel context.CancelCauseFunc
	tr     *trace.Trace

	// step serializes the job's lifecycle steps, so every sink, the
	// journal included, records them in one order. It is held across the
	// journal append, which can block, so it is taken before mu and never
	// by readers.
	step sync.Mutex

	mu         sync.Mutex
	state      State
	since      time.Time // when the job entered state
	submitted  time.Time
	started    time.Time
	finished   time.Time
	artifactID string
	failure    string
	nodes      []topology.NodeID

	// Stdout merges every rank's output; Stdin feeds interactive input.
	Stdout *Stream
	Stdin  *Input
}

// Context returns the job's lifecycle context. It is created at submission
// and cancelled when the job reaches a terminal state; the whole execution
// pipeline (compile, dispatch, VM, MPI) derives from it. Once a job that
// was not cancelled has ended, Context returns finishedCtx, whose cause is
// context.Canceled as the job's own was; a cancelled job keeps its own, so
// context.Cause names the reason.
func (j *Job) Context() context.Context {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ctx
}

// finishedCtx is the context every job that ended without a cancel shares:
// already cancelled, with context.Canceled as its cause. It carries no
// trace; a finished job's trace is read from Job.Trace.
var finishedCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// Trace returns the job's span tree, created at submission and finished at
// the terminal transition. The same trace rides the job's context while it
// runs, so every pipeline layer can record spans without knowing about the
// store.
func (j *Job) Trace() *trace.Trace { return j.tr }

// Snapshot is an immutable view of a job for display.
type Snapshot struct {
	ID         string
	Spec       Spec
	State      State
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
	ArtifactID string
	Failure    string
	Nodes      []topology.NodeID
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot captures the job's current record.
func (j *Job) Snapshot() Snapshot {
	var snap Snapshot
	j.SnapshotInto(&snap)
	return snap
}

// SnapshotInto fills dst with a consistent snapshot, reusing dst's Nodes
// backing array when it has capacity. Hot read paths (the portal's paginated
// job listing) call it with pooled snapshots so a steady-state list page
// allocates nothing.
func (j *Job) SnapshotInto(dst *Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	nodes := append(dst.Nodes[:0], j.nodes...)
	*dst = Snapshot{
		ID:         j.ID,
		Spec:       j.Spec,
		State:      j.state,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
		ArtifactID: j.artifactID,
		Failure:    j.failure,
		Nodes:      nodes,
	}
}

// SetArtifact records the compiled artifact id.
func (j *Job) SetArtifact(id string) {
	j.mu.Lock()
	j.artifactID = id
	j.mu.Unlock()
}

// SetNodes records the allocation.
func (j *Job) SetNodes(nodes []topology.NodeID) {
	j.mu.Lock()
	j.nodes = append([]topology.NodeID(nil), nodes...)
	j.mu.Unlock()
}

// numShards is the job-map shard count; a power of two so the hash can be
// masked. Sixteen shards keep submit/get contention negligible at portal
// scale without wasting memory on empty maps.
const numShards = 16

// shard is one slice of the job map with its own lock.
type shard struct {
	mu   sync.RWMutex
	jobs map[string]*Job
}

// Store holds all jobs and enforces lifecycle transitions.
//
// Concurrency layout: job records live in numShards hash-sharded maps keyed
// by id (Get contends only within a shard); the append-only submission log
// (order/pos, under listMu) serves ListPage; the FIFO queued-index
// (queue, under queueMu) serves the scheduler's ScanQueued; per-state counts
// and the admission counter are atomics. The locks are never nested with
// each other.
//
// The store is the one source of lifecycle facts: Submit and every
// transition write the journal, the activity feed, the job's trace state
// spans and the job histograms while holding the job's step lock, so all
// of them see a job's steps in the order its state took them.
type Store struct {
	shards [numShards]shard
	gen    *ids.Sequential
	clk    clock.Clock
	maxQ   int

	// streamLimit and stdinLimit size each new job's output ring and stdin
	// cap; zero means the package defaults (1 MiB each).
	streamLimit int
	stdinLimit  int

	// active counts non-terminal jobs for maxQ admission; counts tracks
	// every lifecycle state for O(1) Counts.
	active atomic.Int64
	counts [StateCancelled + 1]atomic.Int64

	// admitMu guards the per-owner active count and the admission hook; both
	// sit off the read paths, so a plain mutex is fine. The hook (the tenancy
	// accountant) can veto a submission based on the owner's current load.
	admitMu     sync.Mutex
	ownerActive map[string]int
	admit       func(owner string, active int) error

	listMu sync.RWMutex
	order  []*Job         // submission order
	pos    map[string]int // job id → index in order, for O(page) listing

	queueMu sync.Mutex
	queue   []*Job // FIFO queued-index; lazily pruned by ScanQueued

	notifyMu sync.Mutex
	notify   func()

	// journal, when attached, receives a record for every submission and
	// transition (see journal.go). One atomic load on the hot paths.
	journal dataprovider.Sink

	feed feed
	// stint holds, per non-terminal state, the histogram of time spent in
	// it (SetMetrics); nil entries are not measured.
	stint [StateRunning + 1]*metrics.Histogram
}

// SetMetrics registers the job histograms in reg: job_queue_wait_seconds,
// job_compile_seconds and job_run_seconds, the time a job spends queued,
// compiling and running. A stint is measured when the job leaves the state
// to move on or finish (queued→compiling, compiling→running|failed,
// running→succeeded|failed), never when it is cancelled or requeued. Call
// it once, before the store takes traffic.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.stint = [...]*metrics.Histogram{
		StateQueued:    reg.Histogram("job_queue_wait_seconds", nil),
		StateCompiling: reg.Histogram("job_compile_seconds", nil),
		StateRunning:   reg.Histogram("job_run_seconds", nil),
	}
}

// measured reports whether leaving cur for next ends a stint the job
// histograms count: work that moved on or finished. A job failed while
// still queued never started the work the queue wait leads to.
func measured(cur, next State) bool {
	switch next {
	case StateCancelled, StateQueued:
		return false
	case StateFailed:
		return cur != StateQueued
	}
	return true
}

// SetNotify installs a hook invoked (outside the store locks) after every
// successful Submit — the scheduler registers its wake channel here so a new
// job is dispatched without waiting for a poll interval. A nil fn disables
// notification.
func (s *Store) SetNotify(fn func()) {
	s.notifyMu.Lock()
	s.notify = fn
	s.notifyMu.Unlock()
}

// SetAdmission installs a per-owner admission hook consulted on every Submit
// after the global queue-cap slot is claimed. fn receives the owner and their
// current non-terminal job count; a non-nil error rejects the submission and
// is returned to the caller verbatim. nil disables the hook.
func (s *Store) SetAdmission(fn func(owner string, active int) error) {
	s.admitMu.Lock()
	s.admit = fn
	s.admitMu.Unlock()
}

// ActiveByOwner reports how many non-terminal jobs the owner has.
func (s *Store) ActiveByOwner(owner string) int {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.ownerActive[owner]
}

// ownerDone decrements the owner's active count on a terminal transition.
func (s *Store) ownerDone(owner string) {
	s.admitMu.Lock()
	if n := s.ownerActive[owner]; n > 1 {
		s.ownerActive[owner] = n - 1
	} else {
		delete(s.ownerActive, owner)
	}
	s.admitMu.Unlock()
}

// ownerRestored increments the owner's active count for a replayed
// non-terminal job without consulting the admission hook: recovery must
// reconstruct what was admitted, not re-litigate it.
func (s *Store) ownerRestored(owner string) {
	s.admitMu.Lock()
	s.ownerActive[owner]++
	s.admitMu.Unlock()
}

// NewStore returns a Store admitting at most maxQueued non-terminal jobs
// (0 means unlimited).
func NewStore(maxQueued int, clk clock.Clock) *Store {
	if clk == nil {
		clk = clock.Real{}
	}
	s := &Store{
		gen:         ids.NewSequential("job"),
		clk:         clk,
		maxQ:        maxQueued,
		pos:         make(map[string]int),
		ownerActive: make(map[string]int),
	}
	for i := range s.shards {
		s.shards[i].jobs = make(map[string]*Job)
	}
	return s
}

// SetStreamLimits sizes the per-job output ring buffer and the interactive
// stdin cap for jobs submitted after the call (existing jobs keep their
// buffers). Zero or negative values select the 1 MiB defaults.
func (s *Store) SetStreamLimits(streamBytes, stdinBytes int) {
	s.streamLimit = streamBytes
	s.stdinLimit = stdinBytes
}

// shardFor maps a job id to its shard (FNV-1a).
func (s *Store) shardFor(id string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &s.shards[h&(numShards-1)]
}

// Submit validates the spec and creates a queued job.
func (s *Store) Submit(spec Spec) (*Job, error) {
	if spec.Owner == "" {
		return nil, errors.New("jobs: spec needs an owner")
	}
	if spec.SourcePath == "" {
		return nil, errors.New("jobs: spec needs a source path")
	}
	if spec.Language == "" {
		return nil, errors.New("jobs: spec needs a language")
	}
	if spec.Ranks <= 0 {
		return nil, fmt.Errorf("jobs: ranks must be positive, got %d", spec.Ranks)
	}
	stdinCap := s.stdinLimit
	if stdinCap <= 0 {
		stdinCap = defaultStdinLimit
	}
	if len(spec.Stdin) > stdinCap {
		return nil, fmt.Errorf("%w: pre-supplied stdin is %d bytes, cap %d",
			ErrStdinOverflow, len(spec.Stdin), stdinCap)
	}
	// Claim an admission slot with a CAS loop so the cap stays exact under
	// concurrent submissions without a global lock.
	for {
		n := s.active.Load()
		if s.maxQ > 0 && n >= int64(s.maxQ) {
			return nil, fmt.Errorf("%w (%d active)", ErrQueueFull, n)
		}
		if s.active.CompareAndSwap(n, n+1) {
			break
		}
	}
	// Per-owner admission after the global slot is claimed: the hook sees the
	// owner's live count and may veto (concurrent-job cap, spent step budget).
	s.admitMu.Lock()
	if s.admit != nil {
		if err := s.admit(spec.Owner, s.ownerActive[spec.Owner]); err != nil {
			s.admitMu.Unlock()
			s.active.Add(-1) // release the claimed slot
			return nil, err
		}
	}
	s.ownerActive[spec.Owner]++
	s.admitMu.Unlock()
	id := s.gen.Next()
	tr := trace.New("job", s.clk)
	tr.Root().Annotate("job_id", id)
	tr.Root().Annotate("owner", spec.Owner)
	tr.Root().Annotate("source", spec.SourcePath)
	tr.Root().Annotate("ranks", strconv.Itoa(spec.Ranks))
	tr.StartSpan(StateQueued.String())
	ctx, cancel := newJobContext(tr)
	now := s.clk.Now()
	j := &Job{
		ID:        id,
		Spec:      spec,
		ctx:       ctx,
		cancel:    cancel,
		tr:        tr,
		state:     StateQueued,
		since:     now,
		submitted: now,
		Stdout:    NewStream(s.streamLimit),
		Stdin:     NewInput(s.stdinLimit),
	}
	if spec.Stdin != "" {
		j.Stdin.Feed([]byte(spec.Stdin))
	}
	// Held from before the job is reachable until its submission is
	// recorded, so no later step can precede it in any sink.
	j.step.Lock()
	s.feed.add(FeedEntry{Time: now, Kind: StateQueued.String(), JobID: id})
	s.counts[StateQueued].Add(1)
	sh := s.shardFor(j.ID)
	sh.mu.Lock()
	sh.jobs[j.ID] = j
	sh.mu.Unlock()
	s.listMu.Lock()
	s.pos[j.ID] = len(s.order)
	s.order = append(s.order, j)
	s.listMu.Unlock()
	s.journal.Emit(dataprovider.KindJobSubmit, SubmitRecord{ID: j.ID, Spec: spec, Submitted: j.submitted})
	j.step.Unlock()
	s.queueMu.Lock()
	s.queue = append(s.queue, j)
	s.queueMu.Unlock()
	s.notifyMu.Lock()
	notify := s.notify
	s.notifyMu.Unlock()
	if notify != nil {
		notify()
	}
	return j, nil
}

// newJobContext derives a job's lifecycle context from its trace.
func newJobContext(tr *trace.Trace) (context.Context, context.CancelCauseFunc) {
	return context.WithCancelCause(trace.NewContext(context.Background(), tr))
}

// traceForRestore builds the minimal trace a restored job carries: the
// original spans died with the previous process, so the tree records only
// the job's identity, the fact of restoration and, for a live job, the span
// of the state it resumes in.
func traceForRestore(s *Store, pj PersistedJob, st State) *trace.Trace {
	tr := trace.New("job", s.clk)
	tr.Root().Annotate("job_id", pj.ID)
	tr.Root().Annotate("owner", pj.Spec.Owner)
	tr.Root().Annotate("restored", "true")
	if !st.Terminal() {
		tr.StartSpan(pj.State)
	}
	return tr
}

// Get fetches a job by id.
func (s *Store) Get(id string) (*Job, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	j, ok := sh.jobs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Transition moves a job to the next state, stamping times and failure
// reasons. A failure message is required for StateFailed; for StateCancelled
// it records the cancellation reason. Any terminal transition closes the
// job's streams and cancels its context, so in-flight compile/execute work
// observes the cancellation and unwinds. Moving a compiling or running job
// back to StateQueued requeues it for dispatch (the crash-recovery path).
//
// Each transition is recorded once, in every sink: the journal, the
// activity feed (the entered state's name, the reason as detail), the
// trace (the left state's span closes, the entered one's opens; a terminal
// state finishes the root span instead) and the job histograms. The trace
// changes in the same critical section as the state, so a reader that sees
// a terminal state sees a finished root naming it.
func (s *Store) Transition(id string, next State, failure string) error {
	return s.transition(id, next, failure, s.clk.Now(), true)
}

// transition is the full implementation. WAL replay calls it with the
// recorded timestamp and live off: the record is already in the log, and
// the feed and histograms describe this process's work only.
func (s *Store) transition(id string, next State, failure string, now time.Time, live bool) error {
	j, err := s.Get(id)
	if err != nil {
		return err
	}
	j.step.Lock()
	j.mu.Lock()
	cur := j.state
	allowed := false
	for _, n := range validNext[cur] {
		if n == next {
			allowed = true
			break
		}
	}
	if !allowed {
		j.mu.Unlock()
		j.step.Unlock()
		return fmt.Errorf("%w: %s → %s", ErrBadTransition, cur, next)
	}
	j.state = next
	s.counts[cur].Add(-1)
	s.counts[next].Add(1)
	switch next {
	case StateQueued:
		j.started = time.Time{}
	case StateRunning:
		j.started = now
	case StateSucceeded, StateFailed, StateCancelled:
		j.finished = now
		switch next {
		case StateFailed:
			if failure == "" {
				failure = "unknown failure"
			}
			j.failure = failure
		case StateCancelled:
			j.failure = failure
		}
		j.Stdout.Close()
		j.Stdin.Close()
	}
	if live {
		if h := s.stint[cur]; h != nil && measured(cur, next) {
			h.Observe(now.Sub(j.since).Seconds())
		}
		s.feed.add(FeedEntry{Time: now, Kind: next.String(), JobID: id, Detail: failure})
	}
	j.since = now
	j.tr.EndSpan(cur.String())
	var cause error
	if !next.Terminal() {
		j.tr.StartSpan(next.String())
	} else {
		cause = finishTrace(j.tr, next, failure)
	}
	j.mu.Unlock()
	// The journal append can block on a full commit queue while a snapshot
	// capture reads every job under its mu, so it runs under step alone.
	if live {
		s.journal.Emit(dataprovider.KindJobTransition, TransitionRecord{
			ID: id, State: next.String(), Failure: failure, Time: now,
		})
	}
	j.step.Unlock()
	if next == StateQueued {
		// Re-enter the FIFO queued-index (outside j.step and j.mu:
		// ScanQueued holds queueMu while reading job states, so the lock
		// order must stay queueMu → j.step → j.mu everywhere) and wake the
		// dispatcher.
		s.queueMu.Lock()
		s.queue = append(s.queue, j)
		s.queueMu.Unlock()
		s.notifyMu.Lock()
		notify := s.notify
		s.notifyMu.Unlock()
		if notify != nil {
			notify()
		}
	}
	if next.Terminal() {
		s.active.Add(-1)
		s.ownerDone(j.Spec.Owner)
		j.cancel(cause)
		if next != StateCancelled {
			j.mu.Lock()
			j.ctx, j.cancel = finishedCtx, nil
			j.mu.Unlock()
		}
	}
	return nil
}

// finishTrace closes a job's trace at its terminal state next, naming the
// state, the failure and, for a cancel, the cause on the root. It returns
// the cause the job's context is cancelled with.
func finishTrace(tr *trace.Trace, next State, failure string) error {
	var cause error = context.Canceled
	attrs := append(make([]trace.Attr, 0, 3), trace.Attr{Key: "state", Value: next.String()})
	if failure != "" {
		attrs = append(attrs, trace.Attr{Key: "failure", Value: failure})
	}
	if next == StateCancelled {
		cause = fmt.Errorf("%w: %s", ErrCancelled, failure)
		attrs = append(attrs, trace.Attr{Key: "cause", Value: cause.Error()})
	}
	tr.Finish(attrs...)
	return cause
}

// ListPage returns one page of snapshots, newest first. owner filters when
// non-empty; state filters when non-nil. cursor is the ID of the last job of
// the previous page ("" starts at the newest); the scan resumes strictly
// after it, so pages are stable under concurrent submissions. It returns the
// page and the cursor for the next one ("" when the history is exhausted).
// An unfiltered page costs O(page) rather than O(history); a filtered scan
// additionally walks the non-matching jobs between the matches.
func (s *Store) ListPage(owner string, state *State, limit int, cursor string) ([]Snapshot, string, error) {
	return s.ListPageInto(nil, owner, state, limit, cursor)
}

// ListPageInto is ListPage appending into dst, reusing its capacity (and the
// Nodes backing arrays of recycled elements). Callers that pool the page
// slice — the portal's job-list handler — pay zero allocations per page at
// steady state. dst may be nil.
func (s *Store) ListPageInto(dst []Snapshot, owner string, state *State, limit int, cursor string) ([]Snapshot, string, error) {
	if limit <= 0 {
		limit = 50
	}
	s.listMu.RLock()
	defer s.listMu.RUnlock()
	start := len(s.order) - 1
	if cursor != "" {
		idx, ok := s.pos[cursor]
		if !ok {
			return dst, "", fmt.Errorf("%w: %q", ErrBadCursor, cursor)
		}
		start = idx - 1
	}
	base := len(dst)
	for i := start; i >= 0; i-- {
		j := s.order[i]
		if owner != "" && j.Spec.Owner != owner {
			continue
		}
		// Grow by one, recycling a truncated element's Nodes capacity when
		// the backing array already holds one.
		if cap(dst) > len(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Snapshot{})
		}
		snap := &dst[len(dst)-1]
		j.SnapshotInto(snap)
		if state != nil && snap.State != *state {
			dst = dst[:len(dst)-1]
			continue
		}
		if len(dst)-base == limit {
			if i > 0 {
				return dst, snap.ID, nil
			}
			break
		}
	}
	return dst, "", nil
}

// ScanQueued walks still-queued jobs in submission (FIFO) order, calling fn
// on each. Jobs that have left StateQueued are pruned from the index as the
// walk passes them, so a scan costs O(queued jobs + jobs departed since the
// last scan) rather than O(all non-terminal jobs).
//
// fn runs with the queued-index locked: it must not call Submit (the only
// store operation that takes the same lock). State transitions on the
// visited job are fine.
func (s *Store) ScanQueued(fn func(*Job)) {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	q := s.queue
	w := 0
	for _, j := range q {
		if j.State() != StateQueued {
			continue // departed; drop from the index
		}
		q[w] = j
		w++
		fn(j)
	}
	for i := w; i < len(q); i++ {
		q[i] = nil // release for GC
	}
	s.queue = q[:w]
}

// QueuedCount reports how many jobs are waiting in StateQueued. O(1).
func (s *Store) QueuedCount() int64 { return s.counts[StateQueued].Load() }

// Counts reports how many jobs are in each state. O(states): the store
// maintains the tallies on every submit and transition.
func (s *Store) Counts() map[State]int {
	out := make(map[State]int, len(s.counts))
	for st := StateQueued; st <= StateCancelled; st++ {
		if n := s.counts[st].Load(); n != 0 {
			out[st] = int(n)
		}
	}
	return out
}

// WaitTerminal blocks until the job reaches a terminal state or the timeout
// elapses (wall-clock), returning the final snapshot. It waits on the job's
// context, which the store cancels at the terminal transition and only
// there.
func (s *Store) WaitTerminal(id string, timeout time.Duration) (Snapshot, error) {
	j, err := s.Get(id)
	if err != nil {
		return Snapshot{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-j.Context().Done():
	case <-timer.C:
	}
	snap := j.Snapshot()
	if !snap.State.Terminal() {
		return snap, fmt.Errorf("jobs: %s still %s after %v", id, snap.State, timeout)
	}
	return snap, nil
}
