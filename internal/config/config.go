// Package config defines the configuration for the whole system — cluster
// shape, network timing, portal HTTP settings and resource limits — with JSON
// loading, defaulting and validation.
//
// The defaults describe the cluster from the paper: four segments, each with
// sixteen slave nodes plus a segment master, joined by a master server into a
// grid, with dual- and quad-core machines.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Duration wraps time.Duration with JSON encoding as a string ("150ms").
type Duration time.Duration

// MarshalJSON encodes the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("config: bad duration %q: %v", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("config: duration must be string or integer nanoseconds: %s", b)
	}
	*d = Duration(n)
	return nil
}

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Cluster describes the simulated grid hardware.
type Cluster struct {
	// Segments is the number of cluster segments joined into the grid.
	Segments int `json:"segments"`
	// NodesPerSegment is the number of slave nodes in each segment
	// (excluding the segment master).
	NodesPerSegment int `json:"nodes_per_segment"`
	// CoresPerNode is the core count of each slave node. The paper's
	// cluster mixes dual- and quad-core machines; odd-indexed segments get
	// CoresPerNodeAlt cores when it is non-zero.
	CoresPerNode    int `json:"cores_per_node"`
	CoresPerNodeAlt int `json:"cores_per_node_alt"`
	// MemoryMBPerNode is the memory of each slave node in MiB.
	MemoryMBPerNode int `json:"memory_mb_per_node"`
	// GPUNodes is how many nodes (in segment 0) carry a GPU flag. The
	// paper's lab has one GPU machine.
	GPUNodes int `json:"gpu_nodes"`
}

// Network describes the simulated interconnect timing.
type Network struct {
	// IntraNodeLatency is the cost of core-to-core transfer on one node
	// (the UMA case).
	IntraNodeLatency Duration `json:"intra_node_latency"`
	// IntraSegmentLatency is node-to-node within one segment.
	IntraSegmentLatency Duration `json:"intra_segment_latency"`
	// InterSegmentLatency is the extra hop through the master server
	// between segments (the NUMA / remote case).
	InterSegmentLatency Duration `json:"inter_segment_latency"`
	// BytesPerSecond is link bandwidth for message-size-dependent cost.
	BytesPerSecond int64 `json:"bytes_per_second"`
}

// Portal describes the web front end.
type Portal struct {
	// ListenAddr is the HTTP listen address, e.g. ":8080".
	ListenAddr string `json:"listen_addr"`
	// SessionTTL is how long an authenticated session lives.
	SessionTTL Duration `json:"session_ttl"`
	// MaxUploadBytes bounds a single file upload.
	MaxUploadBytes int64 `json:"max_upload_bytes"`
	// QuotaBytes is the per-user home directory quota.
	QuotaBytes int64 `json:"quota_bytes"`
	// AccessLogSample logs one in every N successful requests (error
	// responses are always logged). 0 or 1 logs every request.
	AccessLogSample int `json:"access_log_sample"`
}

// Limits bounds job execution.
type Limits struct {
	// MaxQueuedJobs bounds the scheduler queue.
	MaxQueuedJobs int `json:"max_queued_jobs"`
	// MaxNodesPerJob bounds a single job's allocation.
	MaxNodesPerJob int `json:"max_nodes_per_job"`
	// JobWallTime is the per-job execution budget.
	JobWallTime Duration `json:"job_wall_time"`
	// VMStepBudget bounds interpreted instructions per rank, so a runaway
	// student program cannot wedge a node.
	VMStepBudget int64 `json:"vm_step_budget"`
	// ArtifactCacheSize bounds the toolchain's compiled-artifact store;
	// least-recently-used artifacts are evicted beyond it.
	ArtifactCacheSize int `json:"artifact_cache_size"`
	// StreamBufferBytes is the per-job output ring: how many trailing
	// stdout/stderr bytes stay readable. Older bytes age out and surface
	// to watchers as explicit dropped-range markers.
	StreamBufferBytes int `json:"stream_buffer"`
	// StdinBufferBytes caps a job's unread interactive stdin, so a client
	// cannot feed input faster than the program consumes it and balloon
	// the process.
	StdinBufferBytes int `json:"stdin_buffer"`
	// UserStepBudget bounds cumulative VM instructions per user across all
	// of their jobs; 0 means unlimited. Distinct from VMStepBudget, which
	// bounds one rank of one job.
	UserStepBudget int64 `json:"user_step_budget"`
	// MaxJobsPerUser caps one user's concurrently active jobs; 0 or
	// negative means unlimited.
	MaxJobsPerUser int `json:"max_jobs_per_user"`
	// APIRatePerSec and APIRateBurst parameterize the per-user API token
	// bucket. Rate 0 or negative disables rate limiting.
	APIRatePerSec float64 `json:"api_rate_per_sec"`
	APIRateBurst  int     `json:"api_rate_burst"`
}

// MPI tunes the message-passing runtime jobs execute under.
type MPI struct {
	// Collectives selects the collective algorithm: "linear" (root talks
	// to every rank), "tree" (binomial), or "hier" (segment-hierarchical:
	// binomial within each segment, leaders exchange across segments).
	Collectives string `json:"collectives"`
	// BufferDepth is the per-channel eager message buffer; sends beyond it
	// block (rendezvous).
	BufferDepth int `json:"buffer_depth"`
	// SendOverhead is the per-message injection overhead (LogP's o). It
	// serializes a rank's sends on the virtual clock; negative disables.
	SendOverhead Duration `json:"send_overhead"`
}

// Fairness tunes multi-tenant scheduling.
type Fairness struct {
	// Enabled switches the scheduler from pure FIFO to weighted fair-share
	// across job owners.
	Enabled bool `json:"enabled"`
	// DefaultWeight is the fair-share weight of users without an override.
	DefaultWeight int64 `json:"default_weight"`
}

// Persistence describes the durable control plane: where the write-ahead
// log and snapshot live and how aggressively they are flushed.
type Persistence struct {
	// Mode selects the data provider: "memory" (no durability, the
	// historical behavior) or "durable" (WAL + snapshot in Dir).
	Mode string `json:"mode"`
	// Dir is the data directory for the durable provider.
	Dir string `json:"dir"`
	// Fsync is the WAL flush policy: "always" (fsync before every
	// acknowledged write — group-committed, so one fsync covers a whole
	// batch), "interval" (fsync at most every FsyncInterval), or "never"
	// (leave flushing to the OS).
	Fsync string `json:"fsync"`
	// FsyncInterval is the flush period for the "interval" policy.
	FsyncInterval Duration `json:"fsync_interval"`
	// SnapshotInterval is how often a started system compacts the job
	// history to JobRetention, in either mode; in durable mode each tick
	// also folds the WAL into a fresh snapshot. Zero disables the periodic
	// pass (portald still takes a snapshot on graceful shutdown).
	SnapshotInterval Duration `json:"snapshot_interval"`
	// JobRetention is how many finished jobs each compaction keeps, in
	// either mode; older terminal jobs are dropped. Negative keeps
	// everything.
	JobRetention int `json:"job_retention"`
}

// Config is the root configuration object.
type Config struct {
	Cluster     Cluster     `json:"cluster"`
	Network     Network     `json:"network"`
	Portal      Portal      `json:"portal"`
	Limits      Limits      `json:"limits"`
	MPI         MPI         `json:"mpi"`
	Fairness    Fairness    `json:"fairness"`
	Persistence Persistence `json:"persistence"`
}

// Default returns the configuration matching the paper's deployment.
func Default() Config {
	return Config{
		Cluster: Cluster{
			Segments:        4,
			NodesPerSegment: 16,
			CoresPerNode:    2,
			CoresPerNodeAlt: 4,
			MemoryMBPerNode: 2048,
			GPUNodes:        1,
		},
		Network: Network{
			IntraNodeLatency:    Duration(200 * time.Nanosecond),
			IntraSegmentLatency: Duration(50 * time.Microsecond),
			InterSegmentLatency: Duration(400 * time.Microsecond),
			BytesPerSecond:      1 << 30, // ~1 GiB/s
		},
		Portal: Portal{
			ListenAddr:     ":8080",
			SessionTTL:     Duration(2 * time.Hour),
			MaxUploadBytes: 8 << 20,
			QuotaBytes:     64 << 20,
		},
		Limits: Limits{
			MaxQueuedJobs:     256,
			MaxNodesPerJob:    16,
			JobWallTime:       Duration(5 * time.Minute),
			VMStepBudget:      50_000_000,
			ArtifactCacheSize: 4096,
			StreamBufferBytes: 1 << 20,
			StdinBufferBytes:  1 << 20,
			UserStepBudget:    0, // unlimited
			MaxJobsPerUser:    256,
			APIRatePerSec:     500,
			APIRateBurst:      1000,
		},
		MPI: MPI{
			Collectives:  "linear",
			BufferDepth:  64,
			SendOverhead: Duration(5 * time.Microsecond),
		},
		Fairness: Fairness{
			Enabled:       true,
			DefaultWeight: 1,
		},
		Persistence: Persistence{
			Mode:             "memory",
			Dir:              "data",
			Fsync:            "always",
			FsyncInterval:    Duration(100 * time.Millisecond),
			SnapshotInterval: Duration(5 * time.Minute),
			JobRetention:     10_000,
		},
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Cluster.Segments <= 0:
		return fmt.Errorf("config: cluster.segments must be positive, got %d", c.Cluster.Segments)
	case c.Cluster.NodesPerSegment <= 0:
		return fmt.Errorf("config: cluster.nodes_per_segment must be positive, got %d", c.Cluster.NodesPerSegment)
	case c.Cluster.CoresPerNode <= 0:
		return fmt.Errorf("config: cluster.cores_per_node must be positive, got %d", c.Cluster.CoresPerNode)
	case c.Cluster.CoresPerNodeAlt < 0:
		return fmt.Errorf("config: cluster.cores_per_node_alt must be non-negative, got %d", c.Cluster.CoresPerNodeAlt)
	case c.Cluster.MemoryMBPerNode <= 0:
		return fmt.Errorf("config: cluster.memory_mb_per_node must be positive, got %d", c.Cluster.MemoryMBPerNode)
	case c.Cluster.GPUNodes < 0 || c.Cluster.GPUNodes > c.Cluster.NodesPerSegment:
		return fmt.Errorf("config: cluster.gpu_nodes out of range: %d", c.Cluster.GPUNodes)
	case c.Network.IntraNodeLatency < 0 || c.Network.IntraSegmentLatency < 0 || c.Network.InterSegmentLatency < 0:
		return fmt.Errorf("config: network latencies must be non-negative")
	case c.Network.BytesPerSecond <= 0:
		return fmt.Errorf("config: network.bytes_per_second must be positive, got %d", c.Network.BytesPerSecond)
	case c.Portal.ListenAddr == "":
		return fmt.Errorf("config: portal.listen_addr must not be empty")
	case c.Portal.SessionTTL <= 0:
		return fmt.Errorf("config: portal.session_ttl must be positive")
	case c.Portal.MaxUploadBytes <= 0:
		return fmt.Errorf("config: portal.max_upload_bytes must be positive")
	case c.Portal.QuotaBytes <= 0:
		return fmt.Errorf("config: portal.quota_bytes must be positive")
	case c.Portal.AccessLogSample < 0:
		return fmt.Errorf("config: portal.access_log_sample must be non-negative, got %d", c.Portal.AccessLogSample)
	case c.Limits.MaxQueuedJobs <= 0:
		return fmt.Errorf("config: limits.max_queued_jobs must be positive")
	case c.Limits.MaxNodesPerJob <= 0:
		return fmt.Errorf("config: limits.max_nodes_per_job must be positive")
	case c.Limits.JobWallTime <= 0:
		return fmt.Errorf("config: limits.job_wall_time must be positive")
	case c.Limits.VMStepBudget <= 0:
		return fmt.Errorf("config: limits.vm_step_budget must be positive")
	case c.Limits.ArtifactCacheSize <= 0:
		return fmt.Errorf("config: limits.artifact_cache_size must be positive")
	case c.Limits.StreamBufferBytes <= 0:
		return fmt.Errorf("config: limits.stream_buffer must be positive")
	case c.Limits.StdinBufferBytes <= 0:
		return fmt.Errorf("config: limits.stdin_buffer must be positive")
	case c.Limits.UserStepBudget < 0:
		return fmt.Errorf("config: limits.user_step_budget must be non-negative, got %d", c.Limits.UserStepBudget)
	case c.Limits.MaxJobsPerUser < 0:
		return fmt.Errorf("config: limits.max_jobs_per_user must be non-negative, got %d", c.Limits.MaxJobsPerUser)
	case c.Limits.APIRatePerSec < 0:
		return fmt.Errorf("config: limits.api_rate_per_sec must be non-negative, got %v", c.Limits.APIRatePerSec)
	case c.Limits.APIRatePerSec > 0 && c.Limits.APIRateBurst <= 0:
		return fmt.Errorf("config: limits.api_rate_burst must be positive when rate limiting is on")
	case c.MPI.Collectives != "" && c.MPI.Collectives != "linear" && c.MPI.Collectives != "tree" && c.MPI.Collectives != "hier":
		return fmt.Errorf("config: mpi.collectives must be \"linear\", \"tree\" or \"hier\", got %q", c.MPI.Collectives)
	case c.MPI.BufferDepth <= 0:
		return fmt.Errorf("config: mpi.buffer_depth must be positive, got %d", c.MPI.BufferDepth)
	case c.Fairness.Enabled && c.Fairness.DefaultWeight < 1:
		return fmt.Errorf("config: fairness.default_weight must be >= 1, got %d", c.Fairness.DefaultWeight)
	case c.Persistence.Mode != "memory" && c.Persistence.Mode != "durable":
		return fmt.Errorf("config: persistence.mode must be \"memory\" or \"durable\", got %q", c.Persistence.Mode)
	case c.Persistence.Fsync != "always" && c.Persistence.Fsync != "interval" && c.Persistence.Fsync != "never":
		return fmt.Errorf("config: persistence.fsync must be \"always\", \"interval\" or \"never\", got %q", c.Persistence.Fsync)
	case c.Persistence.Fsync == "interval" && c.Persistence.FsyncInterval <= 0:
		return fmt.Errorf("config: persistence.fsync_interval must be positive for the interval policy")
	case c.Persistence.SnapshotInterval < 0:
		return fmt.Errorf("config: persistence.snapshot_interval must be non-negative")
	case c.Persistence.Mode == "durable" && c.Persistence.Dir == "":
		return fmt.Errorf("config: persistence.dir must be set in durable mode")
	}
	return nil
}

// TotalNodes returns the number of slave nodes in the grid.
func (c *Config) TotalNodes() int {
	return c.Cluster.Segments * c.Cluster.NodesPerSegment
}

// Read decodes a Config from JSON, applying Default for absent fields.
func Read(r io.Reader) (Config, error) {
	cfg := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("config: decode: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Load reads a Config from a JSON file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Write encodes the configuration as indented JSON.
func (c Config) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
