package tenancy

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/dataprovider"
	"repro/internal/jsonenc"
)

// Persistence surface. Two record kinds cover everything durable about a
// tenant: their limit overrides (upserted whole, like auth users) and their
// cumulative step total (journaled as an absolute value so replay over a
// snapshot that already folded part of the history is idempotent). Disk
// usage is absent: the VFS counts it, and replaying the VFS journal rebuilds
// the count.

// LimitsRecord is the WAL payload for a limits change.
type LimitsRecord struct {
	User   string `json:"user"`
	Limits Limits `json:"limits"`
}

// StepsRecord is the WAL payload for a step charge: the new absolute total.
type StepsRecord struct {
	User  string `json:"user"`
	Steps int64  `json:"steps"`
}

// AppendJSON appends r as json.Marshal encodes it, so the journal records
// every job's step charge without reflection.
func (r StepsRecord) AppendJSON(b []byte) []byte {
	b = append(b, `{"user":`...)
	b = jsonenc.AppendString(b, r.User)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, r.Steps, 10)
	return append(b, '}')
}

// Record is one user's durable tenancy state, as exported into snapshots.
type Record struct {
	User   string `json:"user"`
	Limits Limits `json:"limits"`
	Steps  int64  `json:"steps,omitempty"`
}

// SetJournal attaches the journal limit changes and step charges are
// recorded into; nil detaches it.
func (a *Accountant) SetJournal(j dataprovider.Journal) { a.journal.Attach(j) }

// ApplyRecord replays one journal record. Limits apply as an upsert; step
// records restore the absolute total but never move it backwards, so a
// record the snapshot already folded in is a no-op.
func (a *Accountant) ApplyRecord(rec dataprovider.Record) error {
	switch rec.Kind {
	case dataprovider.KindTenancyLimits:
		var r LimitsRecord
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("tenancy: replay limits: %w", err)
		}
		if r.User == "" {
			return fmt.Errorf("tenancy: replay limits: empty user")
		}
		a.restoreLimits(r.User, r.Limits)
	case dataprovider.KindTenancySteps:
		var r StepsRecord
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("tenancy: replay steps: %w", err)
		}
		if r.User == "" {
			return fmt.Errorf("tenancy: replay steps: empty user")
		}
		a.restoreSteps(r.User, r.Steps)
	default:
		return fmt.Errorf("tenancy: unknown record kind %d", rec.Kind)
	}
	return nil
}

// restoreLimits applies an override set without journaling (the record is
// already in the log).
func (a *Accountant) restoreLimits(user string, l Limits) {
	ac := a.acct(user)
	ac.mu.Lock()
	ac.limits = l
	ac.mu.Unlock()
}

// restoreSteps sets the cumulative total to max(current, total).
func (a *Accountant) restoreSteps(user string, total int64) {
	ac := a.acct(user)
	ac.mu.Lock()
	if total > ac.steps {
		ac.steps = total
	}
	ac.mu.Unlock()
}

// Export snapshots every account's durable state (limits and steps), sorted
// by user. Accounts with neither an override nor any charged steps are
// skipped — they carry no information a fresh account would not.
func (a *Accountant) Export() []Record {
	var out []Record
	for _, user := range a.Users() {
		ac := a.peek(user)
		if ac == nil {
			continue
		}
		ac.mu.Lock()
		rec := Record{User: user, Limits: ac.limits, Steps: ac.steps}
		ac.mu.Unlock()
		if rec.Limits == (Limits{}) && rec.Steps == 0 {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// Import restores exported records (snapshot load). Like replay it is
// idempotent: limits upsert, steps never move backwards.
func (a *Accountant) Import(records []Record) error {
	for _, rec := range records {
		if rec.User == "" {
			return fmt.Errorf("tenancy: import record with empty user")
		}
		a.restoreLimits(rec.User, rec.Limits)
		a.restoreSteps(rec.User, rec.Steps)
	}
	return nil
}
