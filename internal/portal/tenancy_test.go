package portal

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/tenancy"
)

// attachTenancy wires a fresh accountant into the stack's server and
// filesystem, the way core.NewSystem does. newStack leaves tenancy off so
// unrelated tests never pass through the token bucket; tenancy tests opt in
// here.
func attachTenancy(s *stack, defaults tenancy.Limits) *tenancy.Accountant {
	acct := tenancy.New(defaults, clock.NewSim())
	s.fs.SetQuotaFunc(func(u string) int64 { return acct.Effective(u).QuotaBytes })
	s.server.SetTenancy(acct)
	return acct
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope did not parse: %v: %s", err, body)
	}
	return env.Error.Code
}

// usageDoc mirrors the hand-encoded usage document field-for-field; the wire
// test marshals it with encoding/json and demands byte equality, pinning both
// the key order and the value encoding of the zero-alloc path.
type usageDoc struct {
	User string `json:"user"`
	Disk struct {
		UsedBytes  int64 `json:"used_bytes"`
		QuotaBytes int64 `json:"quota_bytes"`
	} `json:"disk"`
	Steps struct {
		Used      int64 `json:"used"`
		Budget    int64 `json:"budget"`
		Remaining int64 `json:"remaining"`
	} `json:"steps"`
	Jobs struct {
		Active int   `json:"active"`
		Max    int64 `json:"max"`
	} `json:"jobs"`
	Rate struct {
		PerSec float64 `json:"per_sec"`
		Burst  int     `json:"burst"`
	} `json:"rate"`
	Weight int64 `json:"weight"`
}

func TestUsageEndpointMatchesEncodingJSON(t *testing.T) {
	s := newStackDispatch(t, false) // idle scheduler: the submitted job stays active
	acct := attachTenancy(s, tenancy.Limits{
		QuotaBytes: 1 << 20, StepBudget: 1000, MaxJobs: 4,
		RatePerSec: 2.5, Burst: 7, Weight: 1,
	})
	c := s.register(t, "alice", "password1")
	acct.ChargeSteps("alice", 250)
	const src = "func main() { }"
	c.do("PUT", "/api/files/content?path=/p.mc", src)
	if st, body := c.do("PUT", "/api/files/content?path=/data.bin", strings.Repeat("x", 12345)); st != http.StatusCreated {
		t.Fatalf("upload status = %d: %s", st, body)
	}
	if st, body := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/p.mc"}); st != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", st, body)
	}

	status, body := c.do("GET", "/api/usage", nil)
	if status != http.StatusOK {
		t.Fatalf("usage status = %d: %s", status, body)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("usage body does not end in newline: %q", body)
	}

	var want usageDoc
	want.User = "alice"
	want.Disk.UsedBytes = 12345 + int64(len(src)) // the VFS's count: both files
	want.Disk.QuotaBytes = 1 << 20
	want.Steps.Used = 250
	want.Steps.Budget = 1000
	want.Steps.Remaining = 750
	want.Jobs.Active = 1
	want.Jobs.Max = 4
	want.Rate.PerSec = 2.5
	want.Rate.Burst = 7
	want.Weight = 1
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(string(body), "\n"); got != string(ref) {
		t.Fatalf("hand-encoded usage diverges from encoding/json:\n got %s\nwant %s", got, ref)
	}
}

// TestUsageUnlimitedBoundsRenderMinusOne: every unset bound must come back as
// -1, never 0, so clients can divide without special cases.
func TestUsageUnlimitedBoundsRenderMinusOne(t *testing.T) {
	s := newStackDispatch(t, false)
	attachTenancy(s, tenancy.Limits{}) // everything inherits "unlimited"
	c := s.register(t, "bob", "password1")

	status, body := c.do("GET", "/api/usage", nil)
	if status != http.StatusOK {
		t.Fatalf("usage status = %d: %s", status, body)
	}
	var doc usageDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Disk.QuotaBytes != -1 || doc.Steps.Budget != -1 || doc.Steps.Remaining != -1 ||
		doc.Jobs.Max != -1 || doc.Rate.PerSec != -1 {
		t.Fatalf("unlimited bounds should render -1: %+v", doc)
	}
	if doc.Weight != 1 {
		t.Fatalf("default weight = %d, want 1", doc.Weight)
	}
}

func TestUsageWithoutTenancyIs503(t *testing.T) {
	s := newStackDispatch(t, false)
	c := s.register(t, "alice", "password1")
	if status, _ := c.do("GET", "/api/usage", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("usage without accountant = %d, want 503", status)
	}
}

func TestAppendJSONFloatParity(t *testing.T) {
	values := []float64{
		0, 1, -1, 0.5, -0.5, 2.5, 3.14159, 123456.789,
		1e-6, 9.9e-7, 1e-7, -1e-7, 1e-9, 5e-324,
		1e20, 9.99e20, 1e21, -1e21, 1.5e22, math.MaxFloat64,
	}
	for _, v := range values {
		ref, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(appendJSONFloat(nil, v)); got != string(ref) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", v, got, ref)
		}
	}
}

func TestAdminUsageEndpointAccess(t *testing.T) {
	s := newStackDispatch(t, false)
	attachTenancy(s, tenancy.Limits{QuotaBytes: 4096})
	student := s.register(t, "alice", "password1")
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)
	if st, body := student.do("PUT", "/api/files/content?path=/f.txt", strings.Repeat("x", 99)); st != http.StatusCreated {
		t.Fatalf("upload status = %d: %s", st, body)
	}

	if status, body := student.do("GET", "/api/admin/users/alice/usage", nil); status != http.StatusForbidden {
		t.Fatalf("student read of admin usage = %d: %s", status, body)
	}
	status, body := admin.do("GET", "/api/admin/users/alice/usage", nil)
	if status != http.StatusOK {
		t.Fatalf("admin usage status = %d: %s", status, body)
	}
	var doc usageDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.User != "alice" || doc.Disk.UsedBytes != 99 {
		t.Fatalf("admin usage doc = %+v", doc)
	}
	status, body = admin.do("GET", "/api/admin/users/nobody/usage", nil)
	if status != http.StatusNotFound || errCode(t, body) != CodeNotFound {
		t.Fatalf("unknown user = %d %s, want 404 not_found", status, body)
	}
}

func TestAdminUsageListPagination(t *testing.T) {
	s := newStackDispatch(t, false)
	acct := attachTenancy(s, tenancy.Limits{})
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)
	for i := 1; i <= 5; i++ {
		s.register(t, fmt.Sprintf("u%d", i), "password1")
	}
	// A user with limits but no account: the list must include them too.
	acct.SetLimits("aa-preprovisioned", tenancy.Limits{QuotaBytes: 512})

	wantNames := []string{"aa-preprovisioned", "root1", "u1", "u2", "u3", "u4", "u5"}
	var got []string
	cursor := ""
	for page := 0; ; page++ {
		if page > len(wantNames) {
			t.Fatal("pagination did not terminate")
		}
		path := "/api/admin/users/usage?limit=3"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		status, body := admin.do("GET", path, nil)
		if status != http.StatusOK {
			t.Fatalf("list status = %d: %s", status, body)
		}
		var resp struct {
			Users      []usageDoc `json:"users"`
			NextCursor string     `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		if len(resp.Users) > 3 {
			t.Fatalf("page of %d users exceeds limit 3", len(resp.Users))
		}
		for _, u := range resp.Users {
			got = append(got, u.User)
		}
		if resp.NextCursor == "" {
			break
		}
		cursor = resp.NextCursor
	}
	if strings.Join(got, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("paged names = %v, want %v", got, wantNames)
	}

	for _, bad := range []string{"0", "-1", "x"} {
		status, body := admin.do("GET", "/api/admin/users/usage?limit="+bad, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("limit=%s status = %d: %s", bad, status, body)
		}
	}
}

func TestSetLimitsRoundTrip(t *testing.T) {
	s := newStackDispatch(t, false)
	attachTenancy(s, tenancy.Limits{QuotaBytes: 1000, Weight: 1})
	s.register(t, "alice", "password1")
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)

	status, body := admin.do("PUT", "/api/admin/users/alice/limits",
		map[string]interface{}{"quota_bytes": 2048, "weight": 3})
	if status != http.StatusOK {
		t.Fatalf("set limits = %d: %s", status, body)
	}
	var resp struct {
		User      string         `json:"user"`
		Limits    tenancy.Limits `json:"limits"`
		Effective tenancy.Limits `json:"effective"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.User != "alice" || resp.Limits.QuotaBytes != 2048 || resp.Limits.Weight != 3 {
		t.Fatalf("limits response = %+v", resp)
	}
	if resp.Effective.QuotaBytes != 2048 || resp.Effective.Weight != 3 {
		t.Fatalf("effective = %+v", resp.Effective)
	}

	// A second PUT touching only step_budget must not clobber the quota.
	status, body = admin.do("PUT", "/api/admin/users/alice/limits",
		map[string]interface{}{"step_budget": 99})
	if status != http.StatusOK {
		t.Fatalf("merge put = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Limits.QuotaBytes != 2048 || resp.Limits.StepBudget != 99 {
		t.Fatalf("merge lost fields: %+v", resp.Limits)
	}

	// An empty body is a valid no-op read of the current standing.
	status, body = admin.do("PUT", "/api/admin/users/alice/limits", nil)
	if status != http.StatusOK {
		t.Fatalf("empty put = %d: %s", status, body)
	}

	status, body = admin.do("PUT", "/api/admin/users/alice/limits",
		map[string]interface{}{"weight": -2})
	if status != http.StatusBadRequest || errCode(t, body) != CodeInvalidArgument {
		t.Fatalf("negative weight = %d %s", status, body)
	}
	status, body = admin.do("PUT", "/api/admin/users/ghost/limits",
		map[string]interface{}{"weight": 2})
	if status != http.StatusNotFound {
		t.Fatalf("unknown user = %d %s", status, body)
	}
	if status, _ := admin.do("PUT", "/api/admin/users/alice/limits", "not json"); status != http.StatusBadRequest {
		t.Fatalf("garbage body = %d", status)
	}
}

// TestRateLimit429CarriesRetryAfter drains a two-token bucket and checks the
// third request gets the full throttling contract: status 429, code
// rate_limited, and a positive integer Retry-After header. The accountant
// runs on a sim clock, so the bucket never refills mid-test.
func TestRateLimit429CarriesRetryAfter(t *testing.T) {
	s := newStackDispatch(t, false)
	attachTenancy(s, tenancy.Limits{RatePerSec: 1, Burst: 2})
	c := s.register(t, "alice", "password1")

	for i := 0; i < 2; i++ {
		if status, body := c.do("GET", "/api/whoami", nil); status != http.StatusOK {
			t.Fatalf("request %d within burst = %d: %s", i, status, body)
		}
	}
	req, err := http.NewRequest("GET", s.srv.URL+"/api/whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status = %d, want 429", res.StatusCode)
	}
	ra := res.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	var env errorEnvelope
	if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeRateLimited {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeRateLimited)
	}
}

// TestRateLimitExemptsAdmins: throttling the operator mid-incident would be
// self-defeating, so admin sessions bypass the bucket entirely.
func TestRateLimitExemptsAdmins(t *testing.T) {
	s := newStackDispatch(t, false)
	attachTenancy(s, tenancy.Limits{RatePerSec: 1, Burst: 2})
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)
	for i := 0; i < 10; i++ {
		if status, body := admin.do("GET", "/api/whoami", nil); status != http.StatusOK {
			t.Fatalf("admin request %d = %d: %s", i, status, body)
		}
	}
}

// TestSubmitBudgetExhausted: admission wiring end to end — a user whose step
// budget is spent gets 422 budget_exhausted at submit, and recovers after an
// admin raises the budget.
func TestSubmitBudgetExhausted(t *testing.T) {
	s := newStackDispatch(t, false)
	acct := attachTenancy(s, tenancy.Limits{StepBudget: 100})
	s.store.SetAdmission(acct.AdmitJob)
	c := s.register(t, "alice", "password1")
	c.do("PUT", "/api/files/content?path=/p.mc", "func main() { }")
	acct.ChargeSteps("alice", 100)

	status, body := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/p.mc"})
	if status != http.StatusUnprocessableEntity || errCode(t, body) != CodeBudgetExhausted {
		t.Fatalf("submit with spent budget = %d %s, want 422 budget_exhausted", status, body)
	}

	acct.SetLimits("alice", tenancy.Limits{StepBudget: -1}) // unlimited override
	if status, body := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/p.mc"}); status != http.StatusAccepted {
		t.Fatalf("submit after raise = %d: %s", status, body)
	}
}

// TestSubmitJobCap: the concurrent-job cap returns 429 rate_limited with a
// Retry-After so clients back off rather than erroring out.
func TestSubmitJobCap(t *testing.T) {
	s := newStackDispatch(t, false) // idle scheduler: the first job never finishes
	acct := attachTenancy(s, tenancy.Limits{MaxJobs: 1})
	s.store.SetAdmission(acct.AdmitJob)
	c := s.register(t, "alice", "password1")
	c.do("PUT", "/api/files/content?path=/p.mc", "func main() { }")

	if status, body := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/p.mc"}); status != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", status, body)
	}
	status, body := c.do("POST", "/api/jobs", map[string]interface{}{"source_path": "/p.mc"})
	if status != http.StatusTooManyRequests || errCode(t, body) != CodeRateLimited {
		t.Fatalf("over-cap submit = %d %s, want 429 rate_limited", status, body)
	}
}

// TestUploadQuotaExceeded: a tenancy quota override, read by the VFS on the
// write, turns an oversized upload into 413 quota_exceeded.
func TestUploadQuotaExceeded(t *testing.T) {
	s := newStackDispatch(t, false)
	acct := attachTenancy(s, tenancy.Limits{})
	c := s.register(t, "alice", "password1")
	acct.SetLimits("alice", tenancy.Limits{QuotaBytes: 16})

	status, body := c.do("PUT", "/api/files/content?path=/big.bin", strings.Repeat("x", 100))
	if status != http.StatusRequestEntityTooLarge || errCode(t, body) != CodeQuotaExceeded {
		t.Fatalf("over-quota upload = %d %s, want 413 quota_exceeded", status, body)
	}
	if status, body := c.do("PUT", "/api/files/content?path=/small.bin", "ok"); status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("within-quota upload = %d: %s", status, body)
	}
}
