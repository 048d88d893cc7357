package portal

import (
	"io"
	"net/http"
	"time"

	"repro/internal/auth"
	"repro/internal/dataprovider"
)

// Persistence is the admin backup/restore surface the portal drives; the
// core system implements it over its provider and snapshot machinery.
type Persistence interface {
	// Backup streams a full state snapshot (accounts, homes, jobs) to w.
	Backup(w io.Writer) error
	// Restore applies a snapshot previously produced by Backup.
	Restore(r io.Reader) error
	// Status reports the provider's identity and operational counters.
	Status() dataprovider.Status
	// Sync blocks until every mutation journaled so far is durable.
	Sync() error
}

// SetPersistence attaches the backup/restore implementation. Without it the
// admin persistence endpoints report their unavailability; every other
// route works normally. Call before serving traffic.
func (s *Server) SetPersistence(p Persistence) { s.persist = p }

// syncPersistence is the durability barrier mutating handlers cross before
// acknowledging: it returns once every record journaled so far — including
// the one the current request just emitted — is flushed under the
// configured fsync policy. Concurrent requests share one group-committed
// flush, and with no persistence attached it costs one nil check.
//
// A failed flush returns a 503 internal error, which the handler writes in
// place of its success response: the portal never acknowledges a write it
// cannot keep.
func (s *Server) syncPersistence() *apiErr {
	if s.persist == nil {
		return nil
	}
	if err := s.persist.Sync(); err != nil {
		s.Log.Errorf("persistence sync failed: %v", err)
		return errf(http.StatusServiceUnavailable, CodeInternal, "persistence sync failed")
	}
	return nil
}

// installPersistence registers the admin persistence endpoints.
func (s *Server) installPersistence(mux *http.ServeMux) {
	s.route(mux, "POST /api/admin/backup", s.withRole(auth.RoleAdmin, s.handleBackup))
	s.route(mux, "POST /api/admin/restore", s.withRole(auth.RoleAdmin, s.handleRestore))
	s.route(mux, "GET /api/admin/persistence", s.withRole(auth.RoleAdmin, s.handlePersistenceStatus))
}

func (s *Server) persistenceOrError(w http.ResponseWriter, r *http.Request) Persistence {
	if s.persist == nil {
		writeError(w, r, errf(http.StatusServiceUnavailable, CodeInternal, "persistence not configured"))
		return nil
	}
	return s.persist
}

// handleBackup streams the full state snapshot as a JSON download.
func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	p := s.persistenceOrError(w, r)
	if p == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", "attachment; filename=\"portal-backup.json\"")
	if err := p.Backup(w); err != nil {
		// The response is already streaming; all we can do is log.
		s.Log.Errorf("backup for %s failed mid-stream: %v", sess.User, err)
		return
	}
	s.Log.Infof("state backup streamed to %s", sess.User)
}

// handleRestore applies an uploaded snapshot. Restores are strict: a user
// in the snapshot colliding with an existing account aborts the whole
// restore with already_exists — restore into a fresh system.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	p := s.persistenceOrError(w, r)
	if p == nil {
		return
	}
	if err := p.Restore(r.Body); err != nil {
		writeError(w, r, fromDomain(err))
		return
	}
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.Log.Infof("state restored by %s", sess.User)
	s.writeJSON(w, http.StatusOK, statusResponse{Status: "restored"})
}

// persistenceStatusJSON wraps the provider status for the admin endpoint.
type persistenceStatusJSON struct {
	dataprovider.Status
	Time time.Time `json:"time"`
}

func (s *Server) handlePersistenceStatus(w http.ResponseWriter, r *http.Request, _ *auth.Session) {
	p := s.persistenceOrError(w, r)
	if p == nil {
		return
	}
	s.writeJSON(w, http.StatusOK, persistenceStatusJSON{Status: p.Status(), Time: time.Now()})
}
