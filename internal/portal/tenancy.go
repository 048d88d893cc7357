package portal

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/auth"
	"repro/internal/tenancy"
)

// Tenancy / usage API surface.
//
//	GET /api/usage                         — the caller's own usage
//	GET /api/admin/users/usage             — all users, cursor-paginated
//	GET /api/admin/users/{name}/usage      — one user
//	PUT /api/admin/users/{name}/limits     — set per-user limit overrides
//
// The usage document renders every unlimited bound as -1, never 0, so
// clients can compute "fraction used" without special-casing.

// SetTenancy attaches the accountant: usage endpoints come alive and
// authenticated requests start passing through the per-user token bucket.
// Without it the endpoints answer 503 and no rate limiting happens.
func (s *Server) SetTenancy(acct *tenancy.Accountant) { s.tenancy = acct }

func (s *Server) installTenancy(mux *http.ServeMux) {
	s.route(mux, "GET /api/usage", s.withAuth(s.handleUsage))
	s.route(mux, "GET /api/admin/users/usage", s.withRole(auth.RoleAdmin, s.handleAdminUsageList))
	s.route(mux, "GET /api/admin/users/{name}/usage", s.withRole(auth.RoleAdmin, s.handleAdminUsage))
	s.route(mux, "PUT /api/admin/users/{name}/limits", s.withRole(auth.RoleAdmin, s.handleSetLimits))
}

// tenancyOrError reports whether the accountant is attached, answering 503
// when it is not (mirrors persistenceOrError).
func (s *Server) tenancyOrError(w http.ResponseWriter, r *http.Request) bool {
	if s.tenancy == nil {
		writeError(w, r, errf(http.StatusServiceUnavailable, CodeInternal, "tenancy accounting not enabled"))
		return false
	}
	return true
}

// orUnlimited renders a resolved bound: values <= 0 mean unlimited → -1.
func orUnlimited(v int64) int64 {
	if v <= 0 {
		return -1
	}
	return v
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' form unless the magnitude calls for an
// exponent, with the exponent's leading zero trimmed (1e-09 → 1e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendUsage appends one user's usage document. Hand-encoded: GET /api/usage
// sits on dashboards' poll loops next to the job list, so it shares the
// zero-alloc serving path. The bytes used are the VFS's own count (0 for a
// user without a home); every other field comes from the accountant.
func (s *Server) appendUsage(b []byte, user string) []byte {
	u := s.tenancy.UsageOf(user)
	eff := u.Effective
	var used int64
	if h, err := s.FS.Home(user); err == nil {
		used = h.Used()
	}
	b = append(b, `{"user":`...)
	b = appendJSONString(b, user)
	b = append(b, `,"disk":{"used_bytes":`...)
	b = strconv.AppendInt(b, used, 10)
	b = append(b, `,"quota_bytes":`...)
	b = strconv.AppendInt(b, orUnlimited(eff.QuotaBytes), 10)
	b = append(b, `},"steps":{"used":`...)
	b = strconv.AppendInt(b, u.Steps, 10)
	b = append(b, `,"budget":`...)
	b = strconv.AppendInt(b, orUnlimited(eff.StepBudget), 10)
	b = append(b, `,"remaining":`...)
	if eff.StepBudget > 0 {
		rem := eff.StepBudget - u.Steps
		if rem < 0 {
			rem = 0
		}
		b = strconv.AppendInt(b, rem, 10)
	} else {
		b = append(b, '-', '1')
	}
	b = append(b, `},"jobs":{"active":`...)
	b = strconv.AppendInt(b, int64(s.Jobs.ActiveByOwner(user)), 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, orUnlimited(int64(eff.MaxJobs)), 10)
	b = append(b, `},"rate":{"per_sec":`...)
	if eff.RatePerSec > 0 {
		b = appendJSONFloat(b, eff.RatePerSec)
	} else {
		b = append(b, '-', '1')
	}
	b = append(b, `,"burst":`...)
	b = strconv.AppendInt(b, int64(eff.Burst), 10)
	b = append(b, `},"weight":`...)
	b = strconv.AppendInt(b, eff.Weight, 10)
	return append(b, '}')
}

// handleUsage serves the caller's own usage document.
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	if !s.tenancyOrError(w, r) {
		return
	}
	rb := getBuf()
	b := s.appendUsage(rb.b[:0], sess.User)
	rb.b = append(b, '\n')
	writeRaw(w, http.StatusOK, rb)
}

// handleAdminUsage serves any user's usage document.
func (s *Server) handleAdminUsage(w http.ResponseWriter, r *http.Request, _ *auth.Session) {
	if !s.tenancyOrError(w, r) {
		return
	}
	name := r.PathValue("name")
	if _, err := s.Auth.User(name); err != nil {
		writeError(w, r, errf(http.StatusNotFound, CodeNotFound, err.Error()))
		return
	}
	rb := getBuf()
	b := s.appendUsage(rb.b[:0], name)
	rb.b = append(b, '\n')
	writeRaw(w, http.StatusOK, rb)
}

// adminUsageLimitMax caps one admin usage page.
const adminUsageLimitMax = 500

// handleAdminUsageList pages usage documents over every known user —
// registered accounts plus any account the accountant tracks (a user can
// accrue limits before registering, e.g. via a pre-provisioned override).
// Cursor pagination: cursor is the last username of the previous page, the
// next page resumes strictly after it.
func (s *Server) handleAdminUsageList(w http.ResponseWriter, r *http.Request, _ *auth.Session) {
	if !s.tenancyOrError(w, r) {
		return
	}
	limit := 50
	if raw := queryParam(r, "limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "bad limit"))
			return
		}
		if n > adminUsageLimitMax {
			n = adminUsageLimitMax
		}
		limit = n
	}
	cursor := queryParam(r, "cursor")
	names := s.Auth.Usernames()
	for _, u := range s.tenancy.Users() {
		i := sort.SearchStrings(names, u)
		if i == len(names) || names[i] != u {
			names = append(names, "")
			copy(names[i+1:], names[i:])
			names[i] = u
		}
	}
	start := 0
	if cursor != "" {
		start = sort.SearchStrings(names, cursor)
		if start < len(names) && names[start] == cursor {
			start++
		}
	}
	end := start + limit
	if end > len(names) {
		end = len(names)
	}
	rb := getBuf()
	b := append(rb.b[:0], `{"users":[`...)
	for i, name := range names[start:end] {
		if i > 0 {
			b = append(b, ',')
		}
		b = s.appendUsage(b, name)
	}
	b = append(b, ']')
	if end < len(names) {
		b = append(b, `,"next_cursor":`...)
		b = appendJSONString(b, names[end-1])
	}
	rb.b = append(b, '}', '\n')
	writeRaw(w, http.StatusOK, rb)
}

// limitsRequest is the PUT body. Pointer fields distinguish "leave this
// override alone" (absent) from "set it to zero = inherit the default" and
// "set it negative = unlimited". An empty body is a valid no-op that just
// returns the user's current standing.
type limitsRequest struct {
	QuotaBytes *int64   `json:"quota_bytes"`
	StepBudget *int64   `json:"step_budget"`
	MaxJobs    *int     `json:"max_jobs"`
	RatePerSec *float64 `json:"rate_per_sec"`
	Burst      *int     `json:"burst"`
	Weight     *int64   `json:"weight"`
}

// limitsResponse reports the stored overrides and their resolution against
// the deployment defaults.
type limitsResponse struct {
	User      string         `json:"user"`
	Limits    tenancy.Limits `json:"limits"`
	Effective tenancy.Limits `json:"effective"`
}

// handleSetLimits updates a user's limit overrides field-by-field.
func (s *Server) handleSetLimits(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	if !s.tenancyOrError(w, r) {
		return
	}
	name := r.PathValue("name")
	if _, err := s.Auth.User(name); err != nil {
		writeError(w, r, errf(http.StatusNotFound, CodeNotFound, err.Error()))
		return
	}
	var req limitsRequest
	if err := decode(r, &req); err != nil && err != io.EOF {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, err.Error()))
		return
	}
	l := s.tenancy.Overrides(name)
	if req.QuotaBytes != nil {
		l.QuotaBytes = *req.QuotaBytes
	}
	if req.StepBudget != nil {
		l.StepBudget = *req.StepBudget
	}
	if req.MaxJobs != nil {
		l.MaxJobs = *req.MaxJobs
	}
	if req.RatePerSec != nil {
		l.RatePerSec = *req.RatePerSec
	}
	if req.Burst != nil {
		l.Burst = *req.Burst
	}
	if req.Weight != nil {
		if *req.Weight < 0 {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "weight must be >= 0"))
			return
		}
		l.Weight = *req.Weight
	}
	eff := s.tenancy.SetLimits(name, l)
	if e := s.syncPersistence(); e != nil {
		writeError(w, r, e)
		return
	}
	s.Log.Infof("limits for %s updated by %s", name, sess.User)
	s.writeJSON(w, http.StatusOK, limitsResponse{User: name, Limits: l, Effective: eff})
}
