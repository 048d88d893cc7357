package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/auth"
	"repro/internal/jobs"
	"repro/internal/tenancy"
	"repro/internal/vfs"
)

// stateVersion guards the snapshot format. Version 1 carried accounts and
// homes; version 2 adds the job history; version 3 adds tenancy records
// (limit overrides and step totals). All are readable.
const stateVersion = 3

// state is the persisted system snapshot: accounts, home directories, the
// job history in its stable serialized form, and per-user tenancy records.
// Sessions and cluster allocations are runtime state and are never persisted
// — after a restart users log in again and the cluster is empty, exactly
// like the real portal after maintenance.
type state struct {
	Version int                   `json:"version"`
	Users   []auth.Record         `json:"users"`
	Homes   map[string][]vfs.Dump `json:"homes"`
	Jobs    []jobs.PersistedJob   `json:"jobs,omitempty"`
	Tenancy []tenancy.Record      `json:"tenancy,omitempty"`
}

// buildState assembles the snapshot image of the current system.
func (s *System) buildState() (state, error) {
	st := state{
		Version: stateVersion,
		Users:   s.Auth.Export(),
		Homes:   make(map[string][]vfs.Dump),
		Jobs:    s.Jobs.Export(),
		Tenancy: s.Tenancy.Export(),
	}
	for _, user := range s.FS.Users() {
		home, err := s.FS.Home(user)
		if err != nil {
			return state{}, err
		}
		st.Homes[user] = home.Export()
	}
	return st, nil
}

// applyState restores a decoded snapshot into this system. Accounts are
// imported strictly (a name collision aborts with auth.ErrDuplicateImport);
// jobs already present are skipped, so replaying the same image twice is
// safe.
func (s *System) applyState(st *state) error {
	if st.Version < 1 || st.Version > stateVersion {
		return fmt.Errorf("core: state version %d, this build reads 1..%d", st.Version, stateVersion)
	}
	if err := s.Auth.Import(st.Users); err != nil {
		return err
	}
	// Tenancy before homes: a user whose quota override exceeds the default
	// must have the raised quota in force when their home is imported, or a
	// legitimately oversized home would fail the import.
	if err := s.Tenancy.Import(st.Tenancy); err != nil {
		return err
	}
	for user, dump := range st.Homes {
		if err := s.FS.EnsureHome(user).Import(dump); err != nil {
			return fmt.Errorf("core: restoring home of %q: %w", user, err)
		}
	}
	if err := s.Jobs.Restore(st.Jobs); err != nil {
		return err
	}
	return nil
}

// SaveState writes a snapshot of accounts, home directories and jobs.
func (s *System) SaveState(w io.Writer) error {
	st, err := s.buildState()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(st); err != nil {
		return fmt.Errorf("core: saving state: %w", err)
	}
	return nil
}

// LoadState restores a snapshot produced by SaveState into this system.
// Restored state is journaled like live mutations, so a restore into a
// durable system survives the next crash.
func (s *System) LoadState(r io.Reader) error {
	var st state
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("core: loading state: %w", err)
	}
	return s.applyState(&st)
}
