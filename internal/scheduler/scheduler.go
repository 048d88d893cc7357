// Package scheduler is the portal's job distributor: it takes queued jobs
// from the store, compiles their sources through the toolchain, allocates
// cluster resources under a placement policy, dispatches the compiled unit
// onto those nodes as an MPI world, and drives each job's lifecycle to a
// terminal state. This is the "backend workhorse" the paper's web interface
// fronts: "it then creates a compilation and/or executor object, which in
// turn upon success contacts a job distributor to allocate resources on the
// cluster and finally dispatch the job onto those resources."
//
// The pipeline is context-propagated end to end: every job carries a
// context.Context from submission, the wall-time limit is a deadline layered
// on top of it, and cancellation from any non-terminal state tears down the
// compile, the VM ranks and their MPI world. Dispatch is event-driven: job
// submission and node release signal a wake channel, so a startable job is
// dispatched in microseconds instead of waiting out a poll interval.
package scheduler

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/toolchain"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Options tune the scheduler.
type Options struct {
	// Policy is the node placement policy; nil means PackPolicy.
	Policy Policy
	// Backfill lets a later job that fits run when the head of the fair
	// order does not (simple EASY-style backfill without reservations). A
	// pass steps over at most maxBlockedPerLane (32) blocked jobs of one
	// owner.
	Backfill bool
	// MaxNodesPerJob bounds a single allocation; 0 means 16.
	MaxNodesPerJob int
	// WallTime bounds a job's execution; 0 means 5 minutes. It is enforced
	// as a context deadline on the job's run, so an over-time job is
	// actually halted, not merely reported late.
	WallTime time.Duration
	// StepBudget is the default per-rank instruction budget; 0 means 50M.
	StepBudget int64
	// Collective selects the MPI collective algorithm for dispatched jobs.
	Collective mpi.Algorithm
	// MPIBufferDepth is the per-channel eager buffer for dispatched jobs'
	// MPI worlds; 0 means the mpi package default.
	MPIBufferDepth int
	// MPISendOverhead is the per-message injection overhead (LogP o) for
	// dispatched jobs; 0 means the mpi package default, negative disables.
	MPISendOverhead time.Duration
	// Logger receives scheduling events; nil discards them.
	Logger *logging.Logger
	// Clock is the time source for dispatch-latency accounting; nil means
	// the wall clock. Wire the same clock as the job store so the
	// submit→allocate latency is measured on one timeline.
	Clock clock.Clock
	// DrainTimeout bounds how long Stop waits for in-flight jobs before
	// cancelling them; 0 means 5 seconds.
	DrainTimeout time.Duration
	// Metrics receives the scheduler's pass-time histogram and queue-depth
	// gauge; nil means metrics.Default. Wire the portal's registry here so
	// they show up on /metrics. The job histograms belong to the store
	// (jobs.Store.SetMetrics).
	Metrics *metrics.Registry
	// Tenant supplies per-user weights and step budgets; nil means every
	// user weighs 1 and budgets are unlimited. Typically the tenancy
	// accountant.
	Tenant Tenant
}

// Scheduler owns the dispatch loop.
type Scheduler struct {
	cluster    *cluster.Cluster
	tools      *toolchain.Service
	store      *jobs.Store
	fs         *vfs.FS
	policy     Policy
	backfill   bool
	maxNodes   int
	wallTime   time.Duration
	stepBudget int64
	collective mpi.Algorithm
	mpiDepth   int
	mpiOver    time.Duration
	log        *logging.Logger
	clk        clock.Clock
	drain      time.Duration
	tenant     Tenant

	mu       sync.Mutex
	inFlight map[string]bool

	// Fair-share lane state (see fairshare.go); guarded by its own mutex so
	// a pass never contends with the in-flight claim map.
	laneMu  sync.Mutex
	lanes   map[string]*ownerLane
	vclock  int64
	laneSeq uint64
	free    []topology.NodeID // tryStart's free-node buffer, reused by every placement

	// wake is signalled by job submission and node release; the dispatch
	// loop selects on it so a startable job never waits out a poll tick.
	wake chan struct{}

	stopCh  chan struct{}
	stopped sync.WaitGroup
	once    sync.Once

	dispatched       atomic.Int64
	latLastUS        atomic.Int64
	latSumUS         atomic.Int64
	cancelledRunning atomic.Int64

	passTime *metrics.Histogram
}

// errWallTime is the cause a run's wall-time timer cancels it with, so a
// wall-time halt is distinguishable from a user cancel.
var errWallTime = errors.New("scheduler: wall time exceeded")

// New wires a Scheduler to its collaborators and registers for their wake
// signals (job submitted, nodes released).
func New(c *cluster.Cluster, tools *toolchain.Service, store *jobs.Store, fs *vfs.FS, opts Options) *Scheduler {
	if opts.Policy == nil {
		opts.Policy = PackPolicy{}
	}
	if opts.MaxNodesPerJob <= 0 {
		opts.MaxNodesPerJob = 16
	}
	if opts.WallTime <= 0 {
		opts.WallTime = 5 * time.Minute
	}
	if opts.StepBudget <= 0 {
		opts.StepBudget = 50_000_000
	}
	if opts.Logger == nil {
		opts.Logger = logging.Discard()
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.Default
	}
	s := &Scheduler{
		cluster:    c,
		tools:      tools,
		store:      store,
		fs:         fs,
		policy:     opts.Policy,
		backfill:   opts.Backfill,
		maxNodes:   opts.MaxNodesPerJob,
		wallTime:   opts.WallTime,
		stepBudget: opts.StepBudget,
		collective: opts.Collective,
		mpiDepth:   opts.MPIBufferDepth,
		mpiOver:    opts.MPISendOverhead,
		log:        opts.Logger,
		clk:        opts.Clock,
		drain:      opts.DrainTimeout,
		tenant:     opts.Tenant,
		inFlight:   make(map[string]bool),
		lanes:      make(map[string]*ownerLane),
		wake:       make(chan struct{}, 1),
		stopCh:     make(chan struct{}),
	}
	// Registered eagerly so the series exist on /metrics before the first
	// pass.
	s.passTime = opts.Metrics.Histogram("scheduler_pass_seconds", nil)
	opts.Metrics.RegisterFunc("scheduler_queue_depth", store.QueuedCount)
	store.SetNotify(s.Wake)
	c.SetReleaseNotify(s.Wake)
	return s
}

// Dispatched reports how many jobs have been started.
func (s *Scheduler) Dispatched() int64 { return s.dispatched.Load() }

// DispatchLatencyLastUS reports the most recent submit→allocate latency in
// microseconds.
func (s *Scheduler) DispatchLatencyLastUS() int64 { return s.latLastUS.Load() }

// DispatchLatencySumUS reports the cumulative submit→allocate latency in
// microseconds across all dispatched jobs; divide by Dispatched for a mean.
func (s *Scheduler) DispatchLatencySumUS() int64 { return s.latSumUS.Load() }

// CancelledWhileRunning reports how many jobs were cancelled after they had
// started executing on the cluster.
func (s *Scheduler) CancelledWhileRunning() int64 { return s.cancelledRunning.Load() }

// Wake nudges the dispatch loop to run a pass soon. It never blocks; a
// pending wake is coalesced with later ones.
func (s *Scheduler) Wake() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// startOutcome classifies one tryStart attempt for the dispatch pass.
type startOutcome int

const (
	startedJob startOutcome = iota
	skippedJob              // no longer startable (raced away, failed fast, already claimed)
	blockedJob              // not enough free nodes right now
)

// Tick performs one scheduling pass and returns the number of jobs started.
// Tick is synchronous in its scheduling decisions but job execution proceeds
// in background goroutines.
//
// The pass is weighted fair-share across job owners (fairshare.go): each
// owner's queued jobs form a lane in submission order, and the lane with the
// greatest deficit goes next, so one user's backlog cannot starve everyone
// else; with a single owner that is plain submission order. The pass reads
// only the store's queued-index (running jobs are never snapshotted) and
// visits every queued job once to refill the lanes, so it costs O(queued
// jobs), which limits.max_queued_jobs bounds. Pass duration is recorded in
// the scheduler_pass_seconds histogram.
func (s *Scheduler) Tick() int {
	passStart := time.Now()
	started := s.tickFair()
	s.passTime.Observe(time.Since(passStart).Seconds())
	return started
}

// tryStart claims the job and launches its pipeline. The claim is taken
// before any resource decision and the job's state is re-verified under it:
// the queued-index walk observed the job outside any claim, so a job
// cancelled since then must not enter the pipeline, and two concurrent
// Ticks must not both dispatch the same job. It runs only in tickFair, whose
// laneMu also guards the free-node buffer.
func (s *Scheduler) tryStart(job *jobs.Job) startOutcome {
	id := job.ID
	s.mu.Lock()
	if s.inFlight[id] {
		s.mu.Unlock()
		return skippedJob
	}
	s.inFlight[id] = true
	s.mu.Unlock()
	unclaim := func() {
		s.mu.Lock()
		delete(s.inFlight, id)
		s.mu.Unlock()
	}
	// Re-verify now that the claim is held; the queued→compiling transition
	// inside execute remains the authoritative gate for anything that still
	// slips through.
	if job.State() != jobs.StateQueued {
		unclaim()
		return skippedJob
	}
	if s.tenant != nil {
		// Admission-time budget gate: a user whose step budget is already
		// spent gets a deterministic failure instead of burning an allocation
		// only to be halted on the first instruction.
		if rem, capped := s.tenant.StepsRemaining(job.Spec.Owner); capped && rem <= 0 {
			s.failJob(job, budgetExhaustedMsg)
			unclaim()
			return skippedJob
		}
	}
	ranks := job.Spec.Ranks
	if ranks > s.maxNodes {
		// Permanently unsatisfiable: fail it rather than clog the queue.
		s.failJob(job, fmt.Sprintf("requested %d nodes, limit is %d", ranks, s.maxNodes))
		unclaim()
		return skippedJob
	}
	if job.Spec.GPU {
		if total := s.cluster.GPUNodeCount(); ranks > total {
			s.failJob(job, fmt.Sprintf("requested %d GPU nodes, cluster has %d", ranks, total))
			unclaim()
			return skippedJob
		}
		s.free = s.cluster.FreeGPUNodes(s.free[:0])
	} else {
		s.free = s.cluster.FreeNodes(s.free[:0])
	}
	nodes := s.policy.Select(s.free, ranks)
	if nodes == nil {
		unclaim()
		return blockedJob // not enough nodes right now
	}
	if err := s.cluster.AllocateNodesTraced(job.Trace(), job.ID, nodes); err != nil {
		unclaim()
		return blockedJob // lost a race with another allocation
	}
	job.SetNodes(nodes)
	s.store.Note(job.ID, "allocated", nodes, s.policy.Name())
	job.Trace().StartSpan("dispatch", trace.Attr{Key: "policy", Value: s.policy.Name()}).End()
	if lat := s.clk.Now().Sub(job.Snapshot().Submitted); lat > 0 {
		s.latLastUS.Store(lat.Microseconds())
		s.latSumUS.Add(lat.Microseconds())
	}
	s.dispatched.Add(1)
	s.stopped.Add(1)
	go func() {
		defer s.stopped.Done()
		defer func() {
			s.cluster.ReleaseTraced(job.Trace(), job.ID)
			s.store.Note(job.ID, "released", nil, "")
			s.mu.Lock()
			delete(s.inFlight, job.ID)
			s.mu.Unlock()
		}()
		s.execute(job)
	}()
	return startedJob
}

// failJob transitions a job to failed from whatever non-terminal state it
// is in.
func (s *Scheduler) failJob(job *jobs.Job, reason string) {
	if err := s.store.Transition(job.ID, jobs.StateFailed, reason); err != nil {
		// Someone else (a cancel) already moved it to a terminal state.
		s.log.Warnf("job %s: could not fail (%v)", job.ID, err)
		return
	}
	s.log.Infof("job %s failed: %s", job.ID, reason)
}

// execute runs the full pipeline for one allocated job under the job's own
// context: cancellation at any point unwinds the stage in progress, and
// runArtifact enforces the wall-time limit on the run.
func (s *Scheduler) execute(job *jobs.Job) {
	ctx := job.Context()
	if err := s.store.Transition(job.ID, jobs.StateCompiling, ""); err != nil {
		return // cancelled while queued
	}
	home, err := s.fs.Home(job.Spec.Owner)
	if err != nil {
		s.failJob(job, fmt.Sprintf("no home for %s", job.Spec.Owner))
		return
	}
	src, err := home.ReadFile(job.Spec.SourcePath)
	if err != nil {
		s.failJob(job, fmt.Sprintf("reading %s: %v", job.Spec.SourcePath, err))
		return
	}
	lang := job.Spec.Language
	if lang == "auto" {
		lang = s.tools.DetectLanguage(job.Spec.SourcePath)
		if lang == "" {
			s.failJob(job, fmt.Sprintf("cannot detect language of %s", job.Spec.SourcePath))
			return
		}
	}
	res, err := s.tools.Compile(ctx, lang, job.Spec.SourcePath, string(src))
	if err != nil {
		if ctx.Err() != nil {
			return // cancelled while compiling; the store already moved it
		}
		s.failJob(job, err.Error())
		return
	}
	if !res.OK {
		var sb strings.Builder
		sb.WriteString("compile failed:\n")
		for _, d := range res.Diagnostics {
			fmt.Fprintf(&sb, "  %s:%s\n", job.Spec.SourcePath, d)
		}
		job.Stdout.Write([]byte(sb.String()))
		s.failJob(job, strings.TrimSpace(sb.String()))
		return
	}
	job.SetArtifact(res.Artifact.ID)
	if err := s.store.Transition(job.ID, jobs.StateRunning, ""); err != nil {
		return // cancelled while compiling
	}
	s.log.Infof("job %s running on %d node(s)", job.ID, job.Spec.Ranks)
	snap := job.Snapshot()
	err = s.runArtifact(ctx, job, res.Artifact.Unit, snap.Nodes)
	if err != nil {
		if ctx.Err() != nil {
			return // cancelled while running; the store already moved it
		}
		if errors.Is(err, errWallTime) {
			s.failJob(job, fmt.Sprintf("exceeded wall time %v", s.wallTime))
			return
		}
		if errors.Is(err, errStepBudget) {
			// Distinct terminal state for tenancy budget exhaustion, as
			// opposed to a per-job budget overrun (which reports the rank
			// error verbatim).
			s.failJob(job, budgetExhaustedMsg)
			return
		}
		s.failJob(job, err.Error())
		return
	}
	if err := s.store.Transition(job.ID, jobs.StateSucceeded, ""); err != nil {
		s.log.Warnf("job %s: %v", job.ID, err)
		return
	}
	s.log.Infof("job %s succeeded", job.ID)
}

// Cancel cancels a job in any non-terminal state. A queued job simply leaves
// the queue; a compiling or running job has its context cancelled, which
// halts the VM ranks mid-program, unblocks MPI peers with mpi.ErrCancelled,
// and releases its nodes once the pipeline unwinds. The job lands in
// StateCancelled with the reason recorded.
func (s *Scheduler) Cancel(id string) error {
	job, err := s.store.Get(id)
	if err != nil {
		return err
	}
	st := job.State()
	if st.Terminal() {
		return fmt.Errorf("scheduler: job %s is already %s", id, st)
	}
	if err := s.store.Transition(id, jobs.StateCancelled, "cancelled by user"); err != nil {
		return err
	}
	if st == jobs.StateRunning {
		s.cancelledRunning.Add(1)
	}
	s.log.Infof("job %s cancelled (was %s)", id, st)
	return nil
}

// Start launches the background dispatch loop. The loop is event-driven: it
// wakes when a job is submitted or nodes are released; the interval is only
// a liveness fallback (0 means 5ms) for wake signals lost to crashes or
// exotic interleavings.
func (s *Scheduler) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	s.stopped.Add(1)
	go func() {
		defer s.stopped.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-s.wake:
				s.Tick()
			case <-t.C:
				s.Tick()
			}
		}
	}()
}

// Stop halts the dispatch loop and drains in-flight jobs, waiting up to the
// configured drain timeout (Options.DrainTimeout) before cancelling whatever
// is still running.
func (s *Scheduler) Stop() { s.StopWithin(s.drain) }

// StopWithin halts the dispatch loop and waits up to drain for in-flight
// jobs to finish on their own. Jobs still in flight at the deadline are
// cancelled — their contexts tear down the VM ranks and MPI worlds — and
// reaped before StopWithin returns. It reports whether the drain was clean
// (no job had to be cancelled).
func (s *Scheduler) StopWithin(drain time.Duration) bool {
	s.once.Do(func() { close(s.stopCh) })
	done := make(chan struct{})
	go func() {
		s.stopped.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(drain):
	}
	s.mu.Lock()
	ids := make([]string, 0, len(s.inFlight))
	for id := range s.inFlight {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		if err := s.store.Transition(id, jobs.StateCancelled, "scheduler shutting down"); err == nil {
			s.log.Infof("job %s cancelled: scheduler shutting down", id)
		}
	}
	<-done
	return false
}
