package ccportal

import (
	"repro/internal/auth"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/logging"
)

// Config is the system configuration: cluster shape, interconnect timing,
// portal settings and resource limits. Load one from JSON with LoadConfig or
// start from DefaultConfig.
type Config = config.Config

// Options tune a System beyond its Config (clock source, scheduler policy,
// logging).
type Options = core.Options

// System is the assembled portal: cluster, toolchain, job store, user
// filesystem, auth service, scheduler and HTTP front end.
type System = core.System

// Role classifies a portal account (student, faculty, admin).
type Role = auth.Role

// Account roles.
const (
	RoleStudent = auth.RoleStudent
	RoleFaculty = auth.RoleFaculty
	RoleAdmin   = auth.RoleAdmin
)

// DefaultConfig returns the configuration matching the paper's deployment:
// four segments of sixteen slave nodes (dual- and quad-core mix, one GPU
// machine) joined into a grid.
func DefaultConfig() Config { return config.Default() }

// LoadConfig reads a Config from a JSON file, applying defaults for absent
// fields and validating the result.
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// New builds a System. Call Start to launch the job dispatcher, Stop to
// shut it down, and either ListenAndServe (real deployments) or Handler
// (embedding, tests) to expose the web portal.
func New(cfg Config, opts Options) (*System, error) { return core.NewSystem(cfg, opts) }

// NewLogger returns a leveled logger suitable for Options.Logger. Level is
// one of "debug", "info", "warn", "error", "off".
func NewLogger(level string) (*logging.Logger, error) {
	lv, err := logging.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return logging.New(nil, "ccportal", lv), nil
}

// Report is the reproduced evaluation: the paper's Tables 1–3 plus the
// per-lab phenomenon demonstrations.
type Report = eval.Report

// Reproduce runs the paper's entire evaluation — a simulated class whose
// submissions are uploaded, compiled, dispatched and graded through the full
// pipeline — and returns the report. classSize <= 0 means the paper's 19.
func Reproduce(classSize int, seed int64) (*Report, error) {
	return eval.Run(classSize, seed)
}
