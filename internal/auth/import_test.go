package auth

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataprovider"
)

// memJournal captures appended records, standing in for the durable provider.
type memJournal struct {
	mu   sync.Mutex
	recs []dataprovider.Record
}

func (m *memJournal) AppendAsync(rec dataprovider.Record) {
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
}

func (m *memJournal) records() []dataprovider.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]dataprovider.Record(nil), m.recs...)
}

// TestExportImportRoundTripProperty registers a randomized population,
// exports it, imports into a fresh service, and checks the property that
// matters: every account can still log in with its original password, keeps
// its role, and no password crosses the boundary in recoverable form.
func TestExportImportRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	roles := []Role{RoleStudent, RoleFaculty, RoleAdmin}
	for trial := 0; trial < 5; trial++ {
		src, _ := newService(t)
		n := 1 + rng.Intn(8)
		passwords := make(map[string]string, n)
		wantRoles := make(map[string]Role, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("user%d.%c", i, 'a'+rng.Intn(26))
			pass := fmt.Sprintf("secret-%d", rng.Int63())
			role := roles[rng.Intn(len(roles))]
			if _, err := src.Register(name, pass, role); err != nil {
				t.Fatal(err)
			}
			passwords[name] = pass
			wantRoles[name] = role
		}

		recs := src.Export()
		if len(recs) != n {
			t.Fatalf("trial %d: exported %d records, want %d", trial, len(recs), n)
		}
		for _, r := range recs {
			if r.Hash == passwords[r.Name] || r.Salt == "" || r.Hash == "" {
				t.Fatalf("trial %d: record %q leaks or lacks credentials", trial, r.Name)
			}
		}

		dst, _ := newService(t)
		if err := dst.Import(recs); err != nil {
			t.Fatalf("trial %d: import: %v", trial, err)
		}
		for name, pass := range passwords {
			if _, err := dst.Login(name, pass); err != nil {
				t.Errorf("trial %d: login %q after import: %v", trial, name, err)
			}
			if _, err := dst.Login(name, pass+"x"); err == nil {
				t.Errorf("trial %d: wrong password accepted for %q", trial, name)
			}
			u, err := dst.User(name)
			if err != nil || u.Role != wantRoles[name] {
				t.Errorf("trial %d: %q role = %v (%v), want %v", trial, name, u.Role, err, wantRoles[name])
			}
		}
		// Re-exporting the imported service yields the identical records.
		again := dst.Export()
		if len(again) != len(recs) {
			t.Fatalf("trial %d: re-export %d records, want %d", trial, len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Errorf("trial %d: re-export[%d] = %+v, want %+v", trial, i, again[i], recs[i])
			}
		}
	}
}

func TestImportRejectsDuplicates(t *testing.T) {
	src, _ := newService(t)
	src.Register("alice", "secret1", RoleStudent)
	src.Register("bobby", "secret2", RoleAdmin)
	recs := src.Export()

	// In-batch duplicate: all-or-nothing, nothing applied.
	dst, _ := newService(t)
	dup := append(append([]Record(nil), recs...), recs[0])
	if err := dst.Import(dup); !errors.Is(err, ErrDuplicateImport) {
		t.Fatalf("in-batch duplicate err = %v, want ErrDuplicateImport", err)
	}
	if names := dst.Usernames(); len(names) != 0 {
		t.Fatalf("partial import applied: %v", names)
	}

	// Collision with an existing account: same error, nothing applied.
	dst2, _ := newService(t)
	dst2.Register("bobby", "other-password", RoleStudent)
	if err := dst2.Import(recs); !errors.Is(err, ErrDuplicateImport) {
		t.Fatalf("existing-user collision err = %v, want ErrDuplicateImport", err)
	}
	if _, err := dst2.Login("alice", "secret1"); err == nil {
		t.Fatal("alice applied despite failed import")
	}
	if _, err := dst2.Login("bobby", "other-password"); err != nil {
		t.Fatalf("existing account damaged by failed import: %v", err)
	}
}

func TestImportRejectsMalformedRecords(t *testing.T) {
	bad := []Record{
		{Name: "X!", Salt: "aa", Hash: "bb"},           // invalid username
		{Name: "ok-name", Salt: "zz", Hash: "bb"},      // non-hex salt
		{Name: "ok-name", Salt: "aa", Hash: "not hex"}, // non-hex hash
		{Name: "ok-name", Salt: "", Hash: "bb"},        // empty salt
	}
	for i, r := range bad {
		s, _ := newService(t)
		if err := s.Import([]Record{r}); !errors.Is(err, ErrBadImportRecord) {
			t.Errorf("record %d: err = %v, want ErrBadImportRecord", i, err)
		}
	}
}

// TestJournalReplayRebuildsUsers drives Register/ChangePassword/SetRole with
// a journal attached and replays the captured records into a fresh service.
func TestJournalReplayRebuildsUsers(t *testing.T) {
	s, _ := newService(t)
	j := &memJournal{}
	s.SetJournal(j)
	s.Register("admin", "adminpw", RoleAdmin)
	s.Register("alice", "first-pass", RoleStudent)
	if err := s.ChangePassword("alice", "first-pass", "second-pass"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRole("admin", "alice", RoleFaculty); err != nil {
		t.Fatal(err)
	}

	fresh, _ := newService(t)
	for _, rec := range j.records() {
		if err := fresh.ApplyRecord(rec); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	// Last write wins: the new password and the new role.
	if _, err := fresh.Login("alice", "second-pass"); err != nil {
		t.Fatalf("login with current password: %v", err)
	}
	if _, err := fresh.Login("alice", "first-pass"); err == nil {
		t.Fatal("stale password still accepted after replay")
	}
	u, _ := fresh.User("alice")
	if u.Role != RoleFaculty {
		t.Fatalf("role = %v, want faculty", u.Role)
	}
	// Sessions are deliberately not journaled: the one successful Login
	// above is the only session, no phantoms were replayed.
	if n := fresh.ActiveSessions(); n != 1 {
		t.Fatalf("sessions = %d, want exactly the 1 created here", n)
	}
}
