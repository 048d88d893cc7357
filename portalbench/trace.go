package main

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataprovider"
	"repro/internal/portal"
)

// A traced round records spans at every layer boundary the benchmark can
// reach from outside the program: around its own calls (op, HTTP request,
// SSE watch), inside the seam wrappers it installs (the server handler, the
// admission hook, the persistence barrier, the scheduler wake), and from
// each job's own trace, fetched after the measured phase. Spans stay in
// memory; parents are resolved and self times computed when the round
// ends, and the spans are written out at the end of the run.

// span kinds; the layer is the repository module the span's self time is
// charged to.
var spanLayer = map[string]string{
	"op":       "loadgen",
	"request":  "portal", // client round trip; self time is the edge as the client sees it
	"watch":    "portal", // SSE watch; self time is attach plus delivery
	"server":   "portal",
	"admit":    "tenancy",
	"sync":     "dataprovider",
	"queue":    "scheduler",
	"dispatch": "scheduler",
	"compile":  "toolchain",
	"run":      "minic",
}

// layers in report order.
var layers = []string{"loadgen", "portal", "tenancy", "dataprovider", "scheduler", "toolchain", "minic"}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the round's measured phase began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the round's spans, -1 for none
	Job    string `json:"job,omitempty"`
	Route  string `json:"route,omitempty"`
	key    string // request ID (request, server) or owner (admit)
	owner  string
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	wakes atomic.Int64
	on    atomic.Bool // record only inside the measured phase
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a span from a seam wrapper, inside the measured phase only.
func (t *tracer) add(s span, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s.Start, s.End = t.ns(start), t.ns(end)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// instrument installs the seam wrappers on a booted, not yet serving
// system and returns the handler to serve. The wrappers exist only in
// traced rounds.
func (t *tracer) instrument(sys *core.System, tokens func(string) string) http.Handler {
	sys.Jobs.SetAdmission(func(owner string, active int) error {
		start := time.Now()
		err := sys.Tenancy.AdmitJob(owner, active)
		t.add(span{Name: "admit", Parent: -1, owner: owner}, start, time.Now())
		return err
	})
	sys.Jobs.SetNotify(func() {
		if t.on.Load() {
			t.wakes.Add(1)
		}
		sys.Sched.Wake()
	})
	sys.Portal.SetPersistence(timedPersistence{sys: sys, t: t})
	next := sys.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		t.add(span{
			Name: "server", Parent: -1, Route: routeOf(r),
			key:   w.Header().Get("X-Request-Id"),
			owner: tokens(strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")),
		}, start, end)
	})
}

// timedPersistence is the portal's persistence surface with the ack
// barrier timed; everything else delegates to the system.
type timedPersistence struct {
	sys *core.System
	t   *tracer
}

var _ portal.Persistence = timedPersistence{}

func (p timedPersistence) Backup(w io.Writer) error  { return p.sys.SaveState(w) }
func (p timedPersistence) Restore(r io.Reader) error { return p.sys.LoadState(r) }

func (p timedPersistence) Status() dataprovider.Status { return p.sys.Provider.Status() }

func (p timedPersistence) Sync() error {
	start := time.Now()
	err := p.sys.Provider.Sync()
	p.t.add(span{Name: "sync", Parent: -1}, start, time.Now())
	return err
}

// routeOf names the route pattern a request hits, for the per-route server
// timings.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/api/jobs/") {
		switch {
		case strings.HasSuffix(p, "/events"):
			p = "/api/jobs/{id}/events"
		case strings.HasSuffix(p, "/trace"):
			p = "/api/jobs/{id}/trace"
		default:
			p = "/api/jobs/{id}"
		}
	}
	return r.Method + " " + p
}

// routeClass groups routes into the edge metrics' classes.
func routeClass(route string) string {
	switch {
	case route == "POST /api/jobs":
		return "submit"
	case route == "PUT /api/files/content":
		return "upload"
	case route == "GET /api/jobs/{id}/events":
		return "events"
	case strings.HasPrefix(route, "GET "):
		return "read"
	}
	return "other"
}

// link resolves parents the recording sites could not know: a server span
// belongs to the client request with its request ID, and an admission or
// barrier span to the server span that contains it (for admission, one of
// the same owner). A watched job's queue, compile and run spans, added
// under the client's watch, move under the SSE handler's span, which is
// what waits on them.
func link(spans []span) {
	byRID := map[string]int{}
	var servers []int
	for i, s := range spans {
		switch s.Name {
		case "request", "watch":
			if s.key != "" {
				byRID[s.key] = i
			}
		case "server":
			servers = append(servers, i)
		}
	}
	handlerOf := map[int]int{} // watch span → its SSE handler's span
	for _, i := range servers {
		if p, ok := byRID[spans[i].key]; ok {
			spans[i].Parent = p
			spans[i].Job = spans[p].Job
			if spans[p].Name == "watch" {
				handlerOf[p] = i
			}
		}
	}
	for i, s := range spans {
		if h, ok := handlerOf[s.Parent]; ok && spanLayer[s.Name] != "portal" {
			spans[i].Parent = h
		}
	}
	sort.Slice(servers, func(a, b int) bool { return spans[servers[a]].Start < spans[servers[b]].Start })
	for i := range spans {
		s := &spans[i]
		if (s.Name != "admit" && s.Name != "sync") || s.Parent >= 0 {
			continue
		}
		// The latest-starting server span that contains this one: handlers
		// overlap only across the two connections, so this is its own.
		k := sort.Search(len(servers), func(j int) bool { return spans[servers[j]].Start > s.Start })
		for j := k - 1; j >= 0; j-- {
			p := spans[servers[j]]
			if p.End >= s.End && (s.Name == "sync" || p.owner == s.owner) {
				s.Parent, s.Job = servers[j], p.Job
				break
			}
		}
	}
}

// selfTimes charges each span's duration, minus the part its children
// cover, to the span's layer. Children are clipped to their parent.
func selfTimes(spans []span) map[string]int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		out[spanLayer[s.Name]] += s.dur() - covered(ivs)
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64
	started := false
	for _, iv := range ivs {
		switch {
		case !started || iv[0] > end:
			total += iv[1] - iv[0]
			end, started = iv[1], true
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// phases splits one job's turnaround into the four phases the trace can
// attribute. The phases come from independent sources — the job record,
// the job's trace spans and the generator's clock — so what they leave of
// the turnaround is the time no layer accounts for.
type phases struct {
	intendedToSubmitted time.Duration // generator lag, edge, admission, ack barrier
	queued              time.Duration // queued and dispatch spans
	compile             time.Duration // compile span
	run                 time.Duration // running span
	delivery            time.Duration // finished → done received (0 when unwatched)
}

func (p phases) sum() time.Duration {
	return p.intendedToSubmitted + p.queued + p.compile + p.run + p.delivery
}

// unattributed is the turnaround minus the phases that explain it.
func unattributed(turnaround time.Duration, p phases) time.Duration {
	return turnaround - p.sum()
}

// absorb keeps a traced round's spans and the per-layer samples they give.
func (r *roundResult) absorb(spans []span) {
	r.spans = spans
	r.server = map[string]*dist{"read": {}, "submit": {}, "upload": {}}
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		switch s.Name {
		case "server":
			if h := r.server[routeClass(s.Route)]; h != nil {
				h.add(us)
			}
			if s.Parent >= 0 && spans[s.Parent].Name == "request" {
				r.client.add(float64(spans[s.Parent].dur()-s.dur()) / 1e3)
			}
		case "admit":
			r.admit.add(us)
		case "sync":
			r.barrier.add(us)
		}
	}
	r.self = selfTimes(spans)
}

// spanLog writes traced rounds' spans as gzip-compressed JSON lines, one
// round after another.
type spanLog struct {
	f     *os.File
	zw    *gzip.Writer
	enc   *json.Encoder
	round int
}

func createSpanLog(path string) (*spanLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &spanLog{f: f, zw: zw, enc: json.NewEncoder(zw)}, nil
}

func (l *spanLog) write(spans []span) error {
	for _, s := range spans {
		if err := l.enc.Encode(struct {
			Round int `json:"round"`
			span
		}{l.round, s}); err != nil {
			return err
		}
	}
	l.round++
	return nil
}

func (l *spanLog) close() error {
	if err := l.zw.Close(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
