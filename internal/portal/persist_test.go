package portal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/auth"
	"repro/internal/dataprovider"
)

// fakePersist implements Persistence over a byte slice, standing in for the
// core system's provider machinery.
type fakePersist struct {
	data       []byte
	restoreErr error
	syncErr    error // what Sync returns
	syncs      atomic.Int64
}

func (p *fakePersist) Backup(w io.Writer) error {
	_, err := w.Write(p.data)
	return err
}

func (p *fakePersist) Restore(r io.Reader) error {
	if p.restoreErr != nil {
		return p.restoreErr
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	p.data = data
	return nil
}

func (p *fakePersist) Status() dataprovider.Status {
	return dataprovider.Status{Mode: "durable", Dir: "/tmp/x", Fsync: "always", WALRecords: 7}
}

func (p *fakePersist) Sync() error {
	p.syncs.Add(1)
	return p.syncErr
}

func TestPersistenceEndpointsRequireAdmin(t *testing.T) {
	s := newStack(t)
	s.server.SetPersistence(&fakePersist{})
	student := s.register(t, "student1", "password1")
	faculty := registerWithRole(t, s, "teach", auth.RoleFaculty)
	for _, c := range []*client{student, faculty} {
		if st, _ := c.do("POST", "/api/admin/backup", nil); st != http.StatusForbidden {
			t.Errorf("backup = %d, want 403", st)
		}
		if st, _ := c.do("POST", "/api/admin/restore", nil); st != http.StatusForbidden {
			t.Errorf("restore = %d, want 403", st)
		}
		if st := c.getJSON("/api/admin/persistence", nil); st != http.StatusForbidden {
			t.Errorf("persistence = %d, want 403", st)
		}
	}
	// Unauthenticated requests bounce before the role check.
	anon := &client{t: t, base: s.srv.URL}
	if st, _ := anon.do("POST", "/api/admin/backup", nil); st != http.StatusUnauthorized {
		t.Errorf("anonymous backup = %d, want 401", st)
	}
}

func TestPersistenceEndpointsWithoutProvider(t *testing.T) {
	s := newStack(t) // no SetPersistence
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)
	for _, probe := range []struct{ method, path string }{
		{"POST", "/api/admin/backup"},
		{"POST", "/api/admin/restore"},
		{"GET", "/api/admin/persistence"},
	} {
		st, body := admin.do(probe.method, probe.path, nil)
		if st != http.StatusServiceUnavailable {
			t.Errorf("%s %s = %d: %s", probe.method, probe.path, st, body)
		}
	}
}

func TestBackupRestoreOverHTTP(t *testing.T) {
	s := newStack(t)
	snapshot := []byte(`{"version":2,"users":[]}`)
	fake := &fakePersist{data: snapshot}
	s.server.SetPersistence(fake)
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)

	req, _ := http.NewRequest("POST", s.srv.URL+"/api/admin/backup", nil)
	req.Header.Set("Authorization", "Bearer "+admin.token)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || string(body) != string(snapshot) {
		t.Fatalf("backup = %d %q", res.StatusCode, body)
	}
	if cd := res.Header.Get("Content-Disposition"); cd == "" {
		t.Error("backup response is not a download")
	}

	// Upload a changed snapshot; the restore must reach the implementation
	// and be followed by a durability sync.
	before := fake.syncs.Load()
	changed := `{"version":2,"users":[{"name":"alice"}]}`
	st, body2 := admin.do("POST", "/api/admin/restore", json.RawMessage(changed))
	if st != http.StatusOK {
		t.Fatalf("restore = %d: %s", st, body2)
	}
	if string(fake.data) != changed {
		t.Fatalf("restored data = %q", fake.data)
	}
	if fake.syncs.Load() <= before {
		t.Error("restore acknowledged without a durability sync")
	}
}

func TestRestoreErrorMapping(t *testing.T) {
	s := newStack(t)
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrapped: %w", auth.ErrDuplicateImport), http.StatusConflict},
		{fmt.Errorf("wrapped: %w", auth.ErrBadImportRecord), http.StatusBadRequest},
	}
	for _, tc := range cases {
		s.server.SetPersistence(&fakePersist{restoreErr: tc.err})
		st, body := admin.do("POST", "/api/admin/restore", json.RawMessage(`{}`))
		if st != tc.want {
			t.Errorf("restore with %v = %d, want %d: %s", tc.err, st, tc.want, body)
		}
	}
}

func TestPersistenceStatusShape(t *testing.T) {
	s := newStack(t)
	s.server.SetPersistence(&fakePersist{})
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)
	var got struct {
		Mode       string `json:"mode"`
		Dir        string `json:"dir"`
		Fsync      string `json:"fsync"`
		WALRecords int64  `json:"wal_records"`
		Time       string `json:"time"`
	}
	if st := admin.getJSON("/api/admin/persistence", &got); st != http.StatusOK {
		t.Fatalf("status = %d", st)
	}
	if got.Mode != "durable" || got.Fsync != "always" || got.WALRecords != 7 || got.Time == "" {
		t.Fatalf("status body = %+v", got)
	}
}

// TestMutationsCrossSyncBarrier pins the acknowledgment contract: a mutating
// request returns only after the portal has crossed the provider's
// durability barrier.
func TestMutationsCrossSyncBarrier(t *testing.T) {
	s := newStack(t)
	fake := &fakePersist{}
	s.server.SetPersistence(fake)
	before := fake.syncs.Load()
	c := s.register(t, "student1", "password1") // registration is a mutation
	if fake.syncs.Load() <= before {
		t.Fatal("register acknowledged without a durability sync")
	}
	before = fake.syncs.Load()
	if st, body := c.do("POST", "/api/files/mkdir", map[string]string{"path": "/work"}); st != http.StatusCreated {
		t.Fatalf("mkdir = %d: %s", st, body)
	}
	if fake.syncs.Load() <= before {
		t.Fatal("mkdir acknowledged without a durability sync")
	}
}

// TestFailedSyncIsNotAcknowledged: when the durability barrier fails, a
// mutating request answers a 503 internal envelope instead of its 2xx, so
// the portal never acknowledges a write it cannot keep.
func TestFailedSyncIsNotAcknowledged(t *testing.T) {
	s := newStack(t)
	fake := &fakePersist{}
	s.server.SetPersistence(fake)
	c := s.register(t, "student1", "password1")
	fake.syncErr = errors.New("fsync: input/output error")
	for _, req := range []struct {
		method, path string
		body         interface{}
	}{
		{"PUT", "/api/files/content?path=/h.mc", "func main() { }"},
		{"POST", "/api/jobs", map[string]string{"source_path": "/h.mc"}},
	} {
		st, body := c.do(req.method, req.path, req.body)
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || st != http.StatusServiceUnavailable ||
			env.Error.Code != CodeInternal || env.Error.Message != "persistence sync failed" {
			t.Errorf("%s %s with a failing sync = %d %s, want a 503 internal envelope", req.method, req.path, st, body)
		}
	}
}
