package portal

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/auth"
	"repro/internal/topology"
)

func TestParseNodeID(t *testing.T) {
	good := map[string]topology.NodeID{
		"s0n00": {Segment: 0, Index: 0},
		"s2n07": {Segment: 2, Index: 7},
		"s3n15": {Segment: 3, Index: 15},
		"s10n1": {Segment: 10, Index: 1},
	}
	for raw, want := range good {
		got, ok := parseNodeID(raw)
		if !ok || got != want {
			t.Errorf("parseNodeID(%q) = %v, %v", raw, got, ok)
		}
	}
	for _, bad := range []string{"", "s", "sn", "s1", "n1", "x1n1", "s1n", "sXn1", "s1nY", "s-1n2"} {
		if _, ok := parseNodeID(bad); ok {
			t.Errorf("parseNodeID(%q) accepted", bad)
		}
	}
}

// registerWithRole creates an account with the given role and returns a
// logged-in client.
func registerWithRole(t *testing.T, s *stack, user string, role auth.Role) *client {
	t.Helper()
	if _, err := s.authz.Register(user, "password1", role); err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, base: s.srv.URL}
	status, body := c.do("POST", "/api/login", map[string]string{"user": user, "password": "password1"})
	if status != http.StatusOK {
		t.Fatalf("login = %d: %s", status, body)
	}
	var resp struct{ Token string }
	json.Unmarshal(body, &resp)
	c.token = resp.Token
	return c
}

func TestNodeDownUpRequiresAdmin(t *testing.T) {
	s := newStack(t)
	student := s.register(t, "student1", "password1")
	faculty := registerWithRole(t, s, "teach", auth.RoleFaculty)
	admin := registerWithRole(t, s, "root1", auth.RoleAdmin)

	if st, _ := student.do("POST", "/api/cluster/nodes/s0n00/down", nil); st != http.StatusForbidden {
		t.Fatalf("student node-down = %d", st)
	}
	if st, _ := faculty.do("POST", "/api/cluster/nodes/s0n00/down", nil); st != http.StatusForbidden {
		t.Fatalf("faculty node-down = %d", st)
	}
	if st, _ := admin.do("POST", "/api/cluster/nodes/s0n00/down", nil); st != http.StatusOK {
		t.Fatalf("admin node-down = %d", st)
	}

	// The node is really out of service.
	var stats struct {
		FreeNodes int `json:"free_nodes"`
	}
	admin.getJSON("/api/cluster/stats", &stats)
	if stats.FreeNodes != 63 {
		t.Fatalf("free nodes after down = %d", stats.FreeNodes)
	}
	if st, _ := admin.do("POST", "/api/cluster/nodes/s0n00/up", nil); st != http.StatusOK {
		t.Fatalf("admin node-up = %d", st)
	}
	admin.getJSON("/api/cluster/stats", &stats)
	if stats.FreeNodes != 64 {
		t.Fatalf("free nodes after up = %d", stats.FreeNodes)
	}

	// Bad ids and unknown nodes.
	if st, _ := admin.do("POST", "/api/cluster/nodes/banana/down", nil); st != http.StatusBadRequest {
		t.Fatalf("bad id = %d", st)
	}
	if st, _ := admin.do("POST", "/api/cluster/nodes/s9n99/down", nil); st != http.StatusNotFound {
		t.Fatalf("unknown node = %d", st)
	}
}

func TestHeartbeatAndStale(t *testing.T) {
	s := newStack(t)
	student := s.register(t, "student1", "password1")
	faculty := registerWithRole(t, s, "teach", auth.RoleFaculty)

	// Any authenticated principal may heartbeat (node agents run as a
	// service account).
	if st, _ := student.do("POST", "/api/cluster/nodes/s1n02/heartbeat", nil); st != http.StatusOK {
		t.Fatalf("heartbeat = %d", st)
	}
	// Stale listing needs faculty.
	if st := student.getJSON("/api/cluster/stale", nil); st != http.StatusForbidden {
		t.Fatalf("student stale = %d", st)
	}
	var stale []string
	if st := faculty.getJSON("/api/cluster/stale?max_age=1h", &stale); st != http.StatusOK {
		t.Fatalf("faculty stale = %d", st)
	}
	// Fresh simulated cluster: nothing stale within an hour (nodes
	// heartbeat at construction).
	if len(stale) != 0 {
		t.Fatalf("stale = %v", stale)
	}
	if st := faculty.getJSON("/api/cluster/stale?max_age=bogus", nil); st != http.StatusBadRequest {
		t.Fatalf("bad max_age = %d", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "metrica", "password1")
	c.do("PUT", "/api/files/content?path=/m.mc", "func main() { }")
	submitAndWait(t, c, map[string]interface{}{"source_path": "/m.mc"})

	// No auth required.
	res, err := http.Get(s.srv.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	// Histograms render as objects, so scalars decode via json.Number.
	var snap map[string]interface{}
	dec := json.NewDecoder(res.Body)
	dec.UseNumber()
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	scalar := func(name string) int64 {
		n, ok := snap[name].(json.Number)
		if !ok {
			t.Fatalf("metric %s = %#v, want number", name, snap[name])
		}
		v, err := n.Int64()
		if err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		return v
	}
	if scalar("cluster_nodes_total") != 64 {
		t.Fatalf("cluster_nodes_total = %v", snap["cluster_nodes_total"])
	}
	if scalar("jobs_submitted_total") < 1 || scalar("auth_logins_total") < 1 || scalar("files_uploaded_total") < 1 {
		t.Fatalf("counters not incremented: %v", snap)
	}
	if scalar("scheduler_dispatched_total") < 1 {
		t.Fatalf("dispatched = %v", snap["scheduler_dispatched_total"])
	}

}

func TestFormatEndpoint(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "fmtuser", "password1")
	ugly := "func main(){var x=1+2*3;println(x);}"
	c.do("PUT", "/api/files/content?path=/ugly.mc", ugly)
	if st, _ := c.do("POST", "/api/files/format", map[string]string{"path": "/ugly.mc"}); st != http.StatusOK {
		t.Fatalf("format = %d", st)
	}
	_, body := c.do("GET", "/api/files/content?path=/ugly.mc", nil)
	want := "func main() {\n\tvar x = 1 + 2 * 3;\n\tprintln(x);\n}\n"
	if string(body) != want {
		t.Fatalf("formatted = %q, want %q", body, want)
	}
	// Garbage cannot be formatted.
	c.do("PUT", "/api/files/content?path=/junk.mc", "not a program")
	if st, _ := c.do("POST", "/api/files/format", map[string]string{"path": "/junk.mc"}); st != http.StatusUnprocessableEntity {
		t.Fatalf("format junk = %d", st)
	}
	// Missing file 404s.
	if st, _ := c.do("POST", "/api/files/format", map[string]string{"path": "/ghost.mc"}); st != http.StatusNotFound {
		t.Fatalf("format missing = %d", st)
	}
}

func TestSchedulerEventsEndpoint(t *testing.T) {
	s := newStack(t)
	c := s.register(t, "watcher", "password1")
	c.do("PUT", "/api/files/content?path=/w.mc", "func main() { }")
	submitAndWait(t, c, map[string]interface{}{"source_path": "/w.mc"})
	var events []struct {
		Seq   int64  `json:"seq"`
		Kind  string `json:"kind"`
		JobID string `json:"job_id"`
	}
	if st := c.getJSON("/api/cluster/events", &events); st != http.StatusOK {
		t.Fatalf("events = %d", st)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	// Incremental polling by sequence number.
	last := events[len(events)-1].Seq
	var tail []struct {
		Seq int64 `json:"seq"`
	}
	c.getJSON(fmt.Sprintf("/api/cluster/events?since=%d", last), &tail)
	if len(tail) != 1 || tail[0].Seq != last {
		t.Fatalf("since filter = %+v", tail)
	}
	if st := c.getJSON("/api/cluster/events?since=-1", nil); st != http.StatusBadRequest {
		t.Fatalf("bad since = %d", st)
	}
}
