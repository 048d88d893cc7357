// Package tenancy is the portal's per-user accounting layer: limits and
// their overrides, cumulative VM step consumption, concurrent-job admission,
// API token buckets, and fair-share weights, all keyed by username. Disk
// usage is not kept here: the VFS counts a user's bytes and asks the
// accountant for their quota.
//
// The accountant is deliberately passive — it never reaches into the VFS,
// the job store, or the scheduler. Those subsystems push usage into it
// (scheduler → ChargeSteps, job store → AdmitJob) and pull decisions out of
// it (Effective, Allow, StepsRemaining, Weight). That keeps the dependency
// arrows pointing one way, so the VFS may call Effective with a home locked,
// and lets every consumer be tested against a fake.
//
// Concurrency layout mirrors the job store: accounts live in hash-sharded
// maps so two users never contend.
package tenancy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/dataprovider"
)

// Errors the admission paths return. The portal maps them onto the error
// envelope (budget_exhausted → 422, too many jobs → 429).
var (
	// ErrBudgetExhausted means the user's cumulative VM step budget is spent.
	ErrBudgetExhausted = errors.New("tenancy: step budget exhausted")
	// ErrTooManyJobs means the user is at their concurrent-job cap.
	ErrTooManyJobs = errors.New("tenancy: too many concurrent jobs")
)

// Limits is one user's resource envelope. The zero value of any field means
// "inherit the deployment default"; a negative value means "unlimited". The
// same struct doubles as the default set the accountant is constructed with
// (where zero simply means unlimited / weight 1).
type Limits struct {
	// QuotaBytes bounds home-directory disk usage.
	QuotaBytes int64 `json:"quota_bytes,omitempty"`
	// StepBudget bounds cumulative VM instructions across all of the user's
	// jobs — spent budget never refills unless an admin raises the limit.
	StepBudget int64 `json:"step_budget,omitempty"`
	// MaxJobs caps concurrently active (non-terminal) jobs.
	MaxJobs int `json:"max_jobs,omitempty"`
	// RatePerSec and Burst parameterize the API token bucket.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	// Weight is the fair-share weight (relative service share).
	Weight int64 `json:"weight,omitempty"`
}

// Usage is a point-in-time snapshot of one user's standing.
type Usage struct {
	User      string
	Steps     int64
	Overrides Limits // per-user overrides as stored (zero = inherited)
	Effective Limits // overrides resolved against the defaults
}

// account is one user's ledger, all of it under mu.
type account struct {
	name string

	mu       sync.Mutex
	limits   Limits // overrides; zero fields inherit the defaults
	steps    int64  // cumulative VM steps charged
	tokens   float64
	lastFill time.Time
}

// numShards must be a power of two (the hash is masked).
const numShards = 16

type shard struct {
	mu       sync.RWMutex
	accounts map[string]*account
}

// Accountant tracks every user's standing against their limits.
type Accountant struct {
	shards   [numShards]shard
	defaults Limits
	clk      clock.Clock

	// journal receives a record for every limits change and step charge.
	journal dataprovider.Sink
}

// New returns an Accountant with the given deployment defaults. In defaults,
// zero means unlimited (and weight 1); per-user overrides later resolve
// against these.
func New(defaults Limits, clk clock.Clock) *Accountant {
	if clk == nil {
		clk = clock.Real{}
	}
	a := &Accountant{defaults: defaults, clk: clk}
	for i := range a.shards {
		a.shards[i].accounts = make(map[string]*account)
	}
	return a
}

func (a *Accountant) shardFor(user string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(user); i++ {
		h = (h ^ uint32(user[i])) * 16777619
	}
	return &a.shards[h&(numShards-1)]
}

// acct returns the user's account, creating it on first touch.
func (a *Accountant) acct(user string) *account {
	sh := a.shardFor(user)
	sh.mu.RLock()
	ac := sh.accounts[user]
	sh.mu.RUnlock()
	if ac != nil {
		return ac
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ac = sh.accounts[user]; ac != nil {
		return ac
	}
	ac = &account{name: user, lastFill: a.clk.Now()}
	ac.tokens = float64(a.effectiveOf(ac).Burst)
	sh.accounts[user] = ac
	return ac
}

// peek returns the account if it exists, without creating one.
func (a *Accountant) peek(user string) *account {
	sh := a.shardFor(user)
	sh.mu.RLock()
	ac := sh.accounts[user]
	sh.mu.RUnlock()
	return ac
}

// resolve merges one override field with its default: zero inherits,
// negative means unlimited (normalized to -1 by Effective's callers only for
// display; internally any value <= 0 after resolution reads as unlimited).
func resolve64(override, def int64) int64 {
	if override != 0 {
		return override
	}
	return def
}

func resolveInt(override, def int) int {
	if override != 0 {
		return override
	}
	return def
}

func resolveFloat(override, def float64) float64 {
	if override != 0 {
		return override
	}
	return def
}

// effectiveOf resolves an account's overrides against the defaults. Caller
// must not hold ac.mu — the method takes it.
func (a *Accountant) effectiveOf(ac *account) Limits {
	ac.mu.Lock()
	o := ac.limits
	ac.mu.Unlock()
	return a.resolveLimits(o)
}

func (a *Accountant) resolveLimits(o Limits) Limits {
	eff := Limits{
		QuotaBytes: resolve64(o.QuotaBytes, a.defaults.QuotaBytes),
		StepBudget: resolve64(o.StepBudget, a.defaults.StepBudget),
		MaxJobs:    resolveInt(o.MaxJobs, a.defaults.MaxJobs),
		RatePerSec: resolveFloat(o.RatePerSec, a.defaults.RatePerSec),
		Burst:      resolveInt(o.Burst, a.defaults.Burst),
		Weight:     resolve64(o.Weight, a.defaults.Weight),
	}
	if eff.Weight <= 0 {
		eff.Weight = 1
	}
	return eff
}

// Effective returns the user's resolved limits (defaults where no override).
func (a *Accountant) Effective(user string) Limits {
	if ac := a.peek(user); ac != nil {
		return a.effectiveOf(ac)
	}
	return a.resolveLimits(Limits{})
}

// Overrides returns the user's stored overrides (zero fields inherit).
func (a *Accountant) Overrides(user string) Limits {
	ac := a.peek(user)
	if ac == nil {
		return Limits{}
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.limits
}

// SetLimits replaces the user's overrides, journals the change, and returns
// the resolved limits.
func (a *Accountant) SetLimits(user string, l Limits) Limits {
	ac := a.acct(user)
	ac.mu.Lock()
	ac.limits = l
	// Re-seed the bucket so a raised burst is usable immediately and a
	// lowered one takes effect now rather than after a drain.
	eff := a.resolveLimits(l)
	if eff.Burst > 0 && ac.tokens > float64(eff.Burst) {
		ac.tokens = float64(eff.Burst)
	}
	ac.mu.Unlock()
	a.journal.Emit(dataprovider.KindTenancyLimits, LimitsRecord{User: user, Limits: l})
	return eff
}

// ChargeSteps adds n VM steps to the user's cumulative consumption and
// journals the new absolute total (absolute, not delta, so replay is
// idempotent under the snapshot-overlap window).
func (a *Accountant) ChargeSteps(user string, n int64) {
	if n <= 0 {
		return
	}
	ac := a.acct(user)
	ac.mu.Lock()
	ac.steps += n
	total := ac.steps
	ac.mu.Unlock()
	a.journal.Emit(dataprovider.KindTenancySteps, StepsRecord{User: user, Steps: total})
}

// Steps returns the user's cumulative charged VM steps.
func (a *Accountant) Steps(user string) int64 {
	ac := a.peek(user)
	if ac == nil {
		return 0
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.steps
}

// StepsRemaining reports how much of the user's step budget is left.
// limited is false when the user is unbudgeted (remaining is then
// meaningless and returned as 0).
func (a *Accountant) StepsRemaining(user string) (remaining int64, limited bool) {
	eff := a.Effective(user)
	if eff.StepBudget <= 0 {
		return 0, false
	}
	rem := eff.StepBudget - a.Steps(user)
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// Weight returns the user's fair-share weight (always >= 1).
func (a *Accountant) Weight(user string) int64 {
	return a.Effective(user).Weight
}

// AdmitJob decides whether the user may submit another job given their
// current active count. The job store calls it under its admission lock.
func (a *Accountant) AdmitJob(user string, active int) error {
	eff := a.Effective(user)
	if eff.MaxJobs > 0 && active >= eff.MaxJobs {
		return fmt.Errorf("%w: %d active, cap %d", ErrTooManyJobs, active, eff.MaxJobs)
	}
	if eff.StepBudget > 0 {
		if rem, limited := a.StepsRemaining(user); limited && rem <= 0 {
			return fmt.Errorf("%w: %d of %d steps spent", ErrBudgetExhausted, a.Steps(user), eff.StepBudget)
		}
	}
	return nil
}

// Allow spends one API token for the user. When the bucket is empty it
// returns ok=false and how long until the next token accrues — the
// Retry-After the portal sends with the 429.
func (a *Accountant) Allow(user string) (ok bool, retryAfter time.Duration) {
	eff := a.Effective(user)
	if eff.RatePerSec <= 0 {
		return true, 0
	}
	burst := eff.Burst
	if burst < 1 {
		burst = 1
	}
	ac := a.acct(user)
	now := a.clk.Now()
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if elapsed := now.Sub(ac.lastFill); elapsed > 0 {
		ac.tokens += elapsed.Seconds() * eff.RatePerSec
		if ac.tokens > float64(burst) {
			ac.tokens = float64(burst)
		}
	}
	ac.lastFill = now
	if ac.tokens >= 1 {
		ac.tokens--
		return true, 0
	}
	wait := time.Duration((1 - ac.tokens) / eff.RatePerSec * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// Users returns every user with an account, sorted.
func (a *Accountant) Users() []string {
	var out []string
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.RLock()
		for name := range sh.accounts {
			out = append(out, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// UsageOf snapshots one user's standing.
func (a *Accountant) UsageOf(user string) Usage {
	return Usage{
		User:      user,
		Steps:     a.Steps(user),
		Overrides: a.Overrides(user),
		Effective: a.Effective(user),
	}
}
