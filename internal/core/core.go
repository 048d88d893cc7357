// Package core wires every subsystem into the complete cluster computing
// portal — the paper's primary contribution. A System owns the simulated
// grid, the toolchain, the job store, the per-user filesystem, the auth
// service, the job distributor, and the HTTP portal in front of them, and
// manages their shared lifecycle.
package core

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/dataprovider"
	"repro/internal/jobs"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/portal"
	"repro/internal/scheduler"
	"repro/internal/tenancy"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

// Options tune a System beyond its Config.
type Options struct {
	// SimulatedClock runs the system on a virtual clock (experiments);
	// false uses the wall clock (serving real requests).
	SimulatedClock bool
	// Policy is the scheduler placement policy name ("pack", "spread").
	Policy string
	// Backfill enables EASY-style queue backfill.
	Backfill bool
	// Collectives names the MPI collective algorithm ("linear", "tree",
	// "hier"). Empty falls back to the config's mpi.collectives.
	Collectives string
	// Logger receives system events; nil discards them.
	Logger *logging.Logger
	// DispatchInterval is the scheduler's fallback poll period; 0 means
	// 5ms. Dispatch itself is event-driven (submission and node release
	// wake the loop), so this only bounds recovery from a lost wake.
	DispatchInterval time.Duration
}

// System is the assembled portal.
type System struct {
	Config  config.Config
	Clock   clock.Clock
	SimClk  *clock.Sim // nil unless SimulatedClock
	Cluster *cluster.Cluster
	Tools   *toolchain.Service
	Jobs    *jobs.Store
	FS      *vfs.FS
	Auth    *auth.Service
	Sched   *scheduler.Scheduler
	Portal  *portal.Server
	// Tenancy is the per-user accounting layer: disk usage, step budgets,
	// job caps, API rate limits and fair-share weights.
	Tenancy *tenancy.Accountant
	// Provider is the configured persistence backend. Call Recover once
	// before Start to restore its contents and arm journaling; Close it
	// after Stop on shutdown.
	Provider dataprovider.Provider
	// Metrics is the registry shared by the scheduler, portal and provider.
	Metrics *metrics.Registry

	log     *logging.Logger
	opts    Options
	started bool
}

// NewSystem builds a System from configuration.
func NewSystem(cfg config.Config, opts Options) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var clk clock.Clock
	var simClk *clock.Sim
	if opts.SimulatedClock {
		simClk = clock.NewSim()
		clk = simClk
	} else {
		clk = clock.Real{}
	}
	if opts.Logger == nil {
		opts.Logger = logging.Discard()
	}
	clus, err := cluster.New(cfg, clk)
	if err != nil {
		return nil, err
	}
	policy, err := scheduler.PolicyByName(opts.Policy)
	if err != nil {
		return nil, err
	}
	tools := toolchain.NewService(clk)
	tools.SetArtifactCacheCap(cfg.Limits.ArtifactCacheSize)
	store := jobs.NewStore(cfg.Limits.MaxQueuedJobs, clk)
	store.SetStreamLimits(cfg.Limits.StreamBufferBytes, cfg.Limits.StdinBufferBytes)
	fs := vfs.New(cfg.Portal.QuotaBytes, clk)
	// Sessions always live on the wall clock: browsers are real even when
	// the cluster is simulated.
	authSvc := auth.NewService(cfg.Portal.SessionTTL.Std(), clock.Real{})
	name := cfg.MPI.Collectives
	if opts.Collectives != "" {
		name = opts.Collectives
	}
	collective, err := mpi.AlgorithmByName(name)
	if err != nil {
		return nil, err
	}
	// The tenancy accountant must exist before Recover runs: the VFS usage
	// sink rebuilds disk counters from journal replay, and tenancy records
	// in the WAL replay straight into it.
	acct := tenancy.New(tenancy.Limits{
		QuotaBytes: cfg.Portal.QuotaBytes,
		StepBudget: cfg.Limits.UserStepBudget,
		MaxJobs:    cfg.Limits.MaxJobsPerUser,
		RatePerSec: cfg.Limits.APIRatePerSec,
		Burst:      cfg.Limits.APIRateBurst,
		Weight:     cfg.Fairness.DefaultWeight,
	}, clk)
	fs.SetUsageSink(acct.AddDisk)
	acct.SetQuotaHook(fs.SetQuota)
	store.SetAdmission(acct.AdmitJob)
	// One registry spans the store, the scheduler and the portal so the job
	// and scheduler histograms surface on /metrics next to the HTTP ones.
	reg := metrics.NewRegistry()
	tools.SetMetrics(reg)
	store.SetMetrics(reg)
	sched := scheduler.New(clus, tools, store, fs, scheduler.Options{
		Policy:          policy,
		Backfill:        opts.Backfill,
		MaxNodesPerJob:  cfg.Limits.MaxNodesPerJob,
		WallTime:        cfg.Limits.JobWallTime.Std(),
		StepBudget:      cfg.Limits.VMStepBudget,
		Collective:      collective,
		MPIBufferDepth:  cfg.MPI.BufferDepth,
		MPISendOverhead: cfg.MPI.SendOverhead.Std(),
		Logger:          opts.Logger.Named("sched"),
		Clock:           clk,
		Metrics:         reg,
		FairShare:       cfg.Fairness.Enabled,
		Tenant:          acct,
	})
	prov, err := buildProvider(cfg, reg)
	if err != nil {
		return nil, err
	}
	srv := portal.NewServer(authSvc, fs, tools, store, sched, clus,
		opts.Logger.Named("portal"), cfg.Portal.MaxUploadBytes)
	srv.SetMetrics(reg)
	srv.SetAccessLogSampling(cfg.Portal.AccessLogSample)
	srv.SetTenancy(acct)
	sys := &System{
		Config:   cfg,
		Clock:    clk,
		SimClk:   simClk,
		Cluster:  clus,
		Tools:    tools,
		Jobs:     store,
		FS:       fs,
		Auth:     authSvc,
		Sched:    sched,
		Portal:   srv,
		Tenancy:  acct,
		Provider: prov,
		Metrics:  reg,
		log:      opts.Logger,
		opts:     opts,
	}
	srv.SetPersistence(persistenceOps{sys})
	return sys, nil
}

// Start launches the background dispatch loop. It is idempotent.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	s.Sched.Start(s.opts.DispatchInterval)
	s.log.Infof("system started: %d nodes in %d segments",
		s.Cluster.Size(), s.Config.Cluster.Segments)
}

// Stop halts the dispatch loop and waits for running jobs.
func (s *System) Stop() {
	if !s.started {
		return
	}
	s.started = false
	s.Sched.Stop()
}

// Handler returns the portal's HTTP handler for embedding or testing.
func (s *System) Handler() http.Handler { return s.Portal }

// Serve starts the system and serves HTTP on the listener until it fails.
func (s *System) Serve(ln net.Listener) error {
	s.Start()
	s.log.Infof("portal listening on %s", ln.Addr())
	return http.Serve(ln, s.Portal)
}

// ListenAndServe starts the system and serves HTTP on the configured
// address.
func (s *System) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.Config.Portal.ListenAddr)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return s.Serve(ln)
}

// Bootstrap registers an initial account (typically the instructor/admin)
// and its home directory; it is a convenience for fresh deployments.
func (s *System) Bootstrap(user, password string, role auth.Role) error {
	if _, err := s.Auth.Register(user, password, role); err != nil {
		return err
	}
	s.FS.EnsureHome(user)
	return nil
}
