package tenancy

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dataprovider"
)

func TestLimitsResolution(t *testing.T) {
	a := New(Limits{QuotaBytes: 1000, StepBudget: 500, MaxJobs: 4, RatePerSec: 10, Burst: 20, Weight: 1}, clock.NewSim())

	// No overrides: effective == defaults.
	eff := a.Effective("fresh")
	if eff.QuotaBytes != 1000 || eff.StepBudget != 500 || eff.MaxJobs != 4 || eff.Weight != 1 {
		t.Fatalf("fresh effective = %+v", eff)
	}

	// Zero fields inherit, set fields override, negative means unlimited.
	a.SetLimits("alice", Limits{QuotaBytes: 2000, StepBudget: -1})
	eff = a.Effective("alice")
	if eff.QuotaBytes != 2000 {
		t.Fatalf("QuotaBytes = %d, want 2000", eff.QuotaBytes)
	}
	if eff.StepBudget != -1 {
		t.Fatalf("StepBudget = %d, want -1 (unlimited)", eff.StepBudget)
	}
	if eff.MaxJobs != 4 {
		t.Fatalf("MaxJobs = %d, want inherited 4", eff.MaxJobs)
	}
	if _, limited := a.StepsRemaining("alice"); limited {
		t.Fatal("negative StepBudget must read as unbudgeted")
	}

	// Resolved weight never drops below 1, even from a zero default.
	b := New(Limits{}, clock.NewSim())
	if w := b.Weight("anyone"); w != 1 {
		t.Fatalf("Weight = %d, want 1", w)
	}
}

func TestStepBudgetAccounting(t *testing.T) {
	a := New(Limits{StepBudget: 100}, clock.NewSim())
	if rem, limited := a.StepsRemaining("u"); !limited || rem != 100 {
		t.Fatalf("StepsRemaining = %d,%v, want 100,true", rem, limited)
	}
	a.ChargeSteps("u", 60)
	if rem, _ := a.StepsRemaining("u"); rem != 40 {
		t.Fatalf("after 60 charged: remaining = %d, want 40", rem)
	}
	a.ChargeSteps("u", 60)
	if rem, _ := a.StepsRemaining("u"); rem != 0 {
		t.Fatalf("overspent budget: remaining = %d, want 0 (floored)", rem)
	}
	if err := a.AdmitJob("u", 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("AdmitJob after exhaustion = %v, want ErrBudgetExhausted", err)
	}
	// Raising the budget re-admits.
	a.SetLimits("u", Limits{StepBudget: 1000})
	if err := a.AdmitJob("u", 0); err != nil {
		t.Fatalf("AdmitJob after raise = %v", err)
	}
}

func TestAdmitJobCap(t *testing.T) {
	a := New(Limits{MaxJobs: 2}, clock.NewSim())
	if err := a.AdmitJob("u", 1); err != nil {
		t.Fatalf("below cap: %v", err)
	}
	if err := a.AdmitJob("u", 2); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("at cap = %v, want ErrTooManyJobs", err)
	}
	// Negative override lifts the cap entirely.
	a.SetLimits("u", Limits{MaxJobs: -1})
	if err := a.AdmitJob("u", 10_000); err != nil {
		t.Fatalf("unlimited cap: %v", err)
	}
}

func TestTokenBucket(t *testing.T) {
	sim := clock.NewSim()
	a := New(Limits{RatePerSec: 10, Burst: 3}, sim)

	for i := 0; i < 3; i++ {
		if ok, _ := a.Allow("u"); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, retry := a.Allow("u")
	if ok {
		t.Fatal("4th token granted from a burst-3 bucket")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms] at 10/s", retry)
	}

	// Advancing the sim clock refills at the configured rate.
	sim.Advance(200 * time.Millisecond) // 2 tokens
	if ok, _ := a.Allow("u"); !ok {
		t.Fatal("token denied after refill")
	}
	if ok, _ := a.Allow("u"); !ok {
		t.Fatal("second refilled token denied")
	}
	if ok, _ := a.Allow("u"); ok {
		t.Fatal("third token granted but only 2 accrued")
	}

	// Rate <= 0 means unlimited.
	b := New(Limits{}, sim)
	for i := 0; i < 1000; i++ {
		if ok, _ := b.Allow("u"); !ok {
			t.Fatal("unlimited bucket denied a request")
		}
	}
}

// memJournal captures emitted records for replay assertions.
type memJournal struct {
	mu   sync.Mutex
	recs []dataprovider.Record
}

func (m *memJournal) Append(rec dataprovider.Record) error {
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
	return nil
}

func (m *memJournal) AppendAsync(rec dataprovider.Record) { m.Append(rec) }

func TestJournalRoundTrip(t *testing.T) {
	j := &memJournal{}
	a := New(Limits{StepBudget: 1000}, clock.NewSim())
	a.SetJournal(j)
	a.SetLimits("alice", Limits{QuotaBytes: 4096, Weight: 4})
	a.ChargeSteps("alice", 250)
	a.ChargeSteps("bob", 40)

	b := New(Limits{StepBudget: 1000}, clock.NewSim())
	for _, rec := range j.recs {
		if err := b.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Overrides("alice"); got.QuotaBytes != 4096 || got.Weight != 4 {
		t.Fatalf("replayed overrides = %+v", got)
	}
	if got := b.Steps("alice"); got != 250 {
		t.Fatalf("replayed steps = %d, want 250", got)
	}
	if got := b.Steps("bob"); got != 40 {
		t.Fatalf("replayed steps = %d, want 40", got)
	}

	// Replaying the same records again must not double anything: steps are
	// absolute totals, limits upserts.
	for _, rec := range j.recs {
		if err := b.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Steps("alice"); got != 250 {
		t.Fatalf("steps after double replay = %d, want 250", got)
	}
}

func TestExportImport(t *testing.T) {
	a := New(Limits{}, clock.NewSim())
	a.SetLimits("alice", Limits{Weight: 8})
	a.ChargeSteps("bob", 77)
	a.SetLimits("carol", Limits{}) // overrides reset to zero carry no durable state

	recs := a.Export()
	if len(recs) != 2 {
		t.Fatalf("Export = %d records, want 2 (alice, bob)", len(recs))
	}

	b := New(Limits{}, clock.NewSim())
	if err := b.Import(recs); err != nil {
		t.Fatal(err)
	}
	if b.Weight("alice") != 8 {
		t.Fatalf("imported weight = %d, want 8", b.Weight("alice"))
	}
	if b.Steps("bob") != 77 {
		t.Fatalf("imported steps = %d, want 77", b.Steps("bob"))
	}
	// Import is idempotent.
	if err := b.Import(recs); err != nil {
		t.Fatal(err)
	}
	if b.Steps("bob") != 77 {
		t.Fatalf("steps after re-import = %d", b.Steps("bob"))
	}
}
