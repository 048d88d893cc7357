package auth

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/dataprovider"
)

// Persistence surface: accounts (name, role, salted iterated hash) are
// durable; sessions are deliberately ephemeral — they are browser state,
// and a portal restart logging everyone out is the documented behavior, so
// nothing here ever journals a session.

// SetJournal attaches the journal account mutations are recorded into; nil
// detaches it. Every Register, ChangePassword, SetRole and Import emits the
// account's full serialized Record (an upsert), so replay order alone
// reconstructs the final account set.
func (s *Service) SetJournal(j dataprovider.Journal) { s.journal.Attach(j) }

// journalUser emits the account's current serialized form. Callers must not
// hold s.mu (record order is preserved by the provider's single queue).
func (s *Service) journalUser(u *User) {
	s.journal.Emit(dataprovider.KindUserPut, Record{
		Name:    u.Name,
		Role:    u.Role,
		Salt:    hex.EncodeToString(u.salt),
		Hash:    hex.EncodeToString(u.hash),
		Created: u.Created,
	})
}

// ApplyRecord replays one journal record: an upsert of the serialized
// account (replay is idempotent — the last write for a name wins, exactly
// the order the mutations originally happened in).
func (s *Service) ApplyRecord(rec dataprovider.Record) error {
	if rec.Kind != dataprovider.KindUserPut {
		return fmt.Errorf("auth: unknown record kind %d", rec.Kind)
	}
	var r Record
	if err := json.Unmarshal(rec.Data, &r); err != nil {
		return fmt.Errorf("auth: replay user: %w", err)
	}
	u, err := decodeRecord(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.users[u.Name] = u
	s.mu.Unlock()
	return nil
}
