// Command loadgen drives the portal with an open-loop HTTP workload and
// reports what "heavy traffic" actually costs: achieved throughput against
// the target arrival rate and the latency distribution (p50/p99/p999)
// measured from each request's *intended* start time, so queueing delay is
// charged to the server rather than silently absorbed by a stalled client
// (the coordinated-omission trap closed-loop harnesses fall into).
//
// Usage:
//
//	loadgen [-url http://host:8080] [-rps 200] [-duration 10s]
//	        [-deck mixed|read|submit|login|languages|get|list|watch|multitenant]
//	        [-users 8] [-conns 32] [-timeout 5s] [-smoke] [-o bench.txt]
//
// The multitenant deck mixes submissions and usage polls across the rotating
// accounts; when driving the in-process portal it also assigns skewed
// fair-share weights (1, 2, 4, 8 round-robin) through the admin limits API,
// so the run exercises the weighted scheduler rather than equal shares.
// Rate-limited responses (429) are counted in their own bucket — under
// -smoke any 429 at the default limits fails the run, since the defaults
// are sized to never throttle a well-behaved classroom.
//
// With no -url it boots an in-process portal (the paper's default cluster,
// memory persistence) on a loopback listener and drives that — the mode
// `make bench-http` and the `make check` smoke gate use. Results go to
// stderr for humans; stdout carries one `go test -bench`-formatted line so
// the output pipes straight into cmd/benchjson:
//
//	BenchmarkLoadgenMixed 	 1994 	 812345.0 ns/op	200.0 rps-target	199.4 rps-achieved	...
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	ccportal "repro"
)

func main() {
	var (
		baseURL  = flag.String("url", "", "portal base URL; empty boots an in-process portal")
		rps      = flag.Float64("rps", 200, "target open-loop arrival rate, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		deck     = flag.String("deck", "mixed", "scenario deck: mixed, read, submit, login, languages, get, list, watch, multitenant")
		users    = flag.Int("users", 8, "accounts to register and rotate across")
		conns    = flag.Int("conns", 32, "concurrent workers (connection upper bound)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		seed     = flag.Int64("seed", 1, "deck-shuffle random seed")
		smoke    = flag.Bool("smoke", false, "short low-rate run that fails on any server error")
		outPath  = flag.String("o", "", "also append the benchmark line to this file")
	)
	flag.Parse()

	if *smoke {
		*rps, *duration, *users, *conns = 50, 2*time.Second, 2, 8
	}
	if err := run(*baseURL, *deck, *rps, *duration, *users, *conns, *timeout, *seed, *smoke, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(baseURL, deckName string, rps float64, duration time.Duration, users, conns int, timeout time.Duration, seed int64, smoke bool, outPath string) error {
	if rps <= 0 || duration <= 0 || users < 1 || conns < 1 {
		return fmt.Errorf("need positive -rps, -duration, -users and -conns")
	}
	mix, ok := decks[deckName]
	if !ok {
		return fmt.Errorf("unknown deck %q (have mixed, read, submit, login, languages, get, list, watch, multitenant)", deckName)
	}

	var sys *ccportal.System
	if baseURL == "" {
		stop, addr, s, err := bootPortal()
		if err != nil {
			return err
		}
		defer stop()
		baseURL, sys = addr, s
	}
	baseURL = strings.TrimRight(baseURL, "/")

	r := &runner{
		base: baseURL,
		client: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        conns * 2,
				MaxIdleConnsPerHost: conns * 2,
			},
		},
	}
	if err := r.setup(users); err != nil {
		return err
	}
	if deckName == "multitenant" && sys != nil {
		if err := skewWeights(sys, baseURL, users); err != nil {
			return fmt.Errorf("assigning fair-share weights: %w", err)
		}
	}

	res := r.fire(mix, rps, duration, conns, seed)
	report(os.Stderr, deckName, rps, res)

	line := benchLine(deckName, rps, res)
	fmt.Println(line)
	if outPath != "" {
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(f, line); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if smoke {
		if res.completed == 0 {
			return fmt.Errorf("smoke: no request completed")
		}
		if res.serverErrs > 0 || res.transportErrs > 0 {
			return fmt.Errorf("smoke: %d server errors, %d transport errors", res.serverErrs, res.transportErrs)
		}
		if res.rateLimited > 0 {
			return fmt.Errorf("smoke: %d spurious 429s at default rate limits", res.rateLimited)
		}
	}
	return nil
}

// bootPortal starts an in-process portal on a loopback listener and returns
// a stop function, the base URL and the system (for in-process-only setup
// such as weight assignment).
func bootPortal() (func(), string, *ccportal.System, error) {
	cfg := ccportal.DefaultConfig()
	logger, err := ccportal.NewLogger("error")
	if err != nil {
		return nil, "", nil, err
	}
	sys, err := ccportal.New(cfg, ccportal.Options{Policy: "pack", Logger: logger})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	go sys.Serve(ln)
	stop := func() {
		ln.Close()
		sys.Stop()
	}
	return stop, "http://" + ln.Addr().String(), sys, nil
}

// skewWeights bootstraps an admin account on the in-process portal and
// assigns the loadgen users fair-share weights 1, 2, 4, 8 round-robin
// through the admin limits API, so the multitenant deck runs against a
// genuinely weighted scheduler.
func skewWeights(sys *ccportal.System, baseURL string, users int) error {
	const admin, adminPass = "loadgen-admin", "loadgen-admin-pass"
	// A re-run against a still-warm in-process portal finds the account.
	if err := sys.Bootstrap(admin, adminPass, ccportal.RoleAdmin); err != nil && !strings.Contains(err.Error(), "exists") {
		return err
	}
	c := ccportal.NewClient(baseURL)
	if err := c.Login(admin, adminPass); err != nil {
		return err
	}
	for i := 0; i < users; i++ {
		w := int64(1) << (i % 4)
		if _, err := c.SetLimits(fmt.Sprintf("loadgen%d", i), ccportal.LimitSpec{Weight: &w}); err != nil {
			return err
		}
	}
	return nil
}

// --- workload --------------------------------------------------------------

const loadgenPassword = "loadgen-pass"

// minicSource is the program every loadgen job runs — small enough to
// compile instantly, real enough to exercise the full submit→run pipeline.
const minicSource = `func main() { println("loadgen"); }`

// runner holds what every worker shares: the target, the session tokens and
// the pool of known job IDs the get/watch/cancel operations draw from.
type runner struct {
	base   string
	client *http.Client
	tokens []string

	mu   sync.Mutex
	jobs []jobRef
}

// jobRef pairs a job ID with its owner's token: students only see their own
// jobs, so reads against the pool must come from the submitting account.
type jobRef struct {
	id    string
	token string
}

// setup registers (or reuses) the accounts, logs each in, uploads the
// benchmark source and seeds the job-ID pool so read operations have
// something to read from the first tick.
func (r *runner) setup(users int) error {
	for i := 0; i < users; i++ {
		user := fmt.Sprintf("loadgen%d", i)
		// Re-runs against a live portal find the account already there.
		r.postJSON("/api/register", "", map[string]string{"user": user, "password": loadgenPassword}, nil)
		var resp struct {
			Token string `json:"token"`
		}
		if _, err := r.postJSON("/api/login", "", map[string]string{"user": user, "password": loadgenPassword}, &resp); err != nil {
			return fmt.Errorf("login %s: %w", user, err)
		}
		r.tokens = append(r.tokens, resp.Token)

		req, err := http.NewRequest("PUT", r.base+"/api/files/content?path=/bench.mc", strings.NewReader(minicSource))
		if err != nil {
			return err
		}
		req.Header.Set("Authorization", "Bearer "+resp.Token)
		if _, err := r.do(req, nil); err != nil {
			return fmt.Errorf("upload source for %s: %w", user, err)
		}
	}
	// Seed jobs so get/watch/cancel never start against an empty pool.
	for i := 0; i < 2*users; i++ {
		status, err := r.submitJob(r.tokens[i%len(r.tokens)])
		if err != nil {
			return fmt.Errorf("seed job: %w", err)
		}
		if status >= 300 {
			return fmt.Errorf("seed job: submit returned %d", status)
		}
	}
	return nil
}

// submitJob submits one job, pooling its ID on success. The status is
// returned alongside so callers can classify HTTP rejections (including
// 429s) themselves; err is non-nil only for transport failures.
func (r *runner) submitJob(token string) (int, error) {
	var job struct {
		ID string `json:"id"`
	}
	status, err := r.postJSON("/api/jobs", token, map[string]interface{}{
		"source_path": "/bench.mc", "language": "minic", "ranks": 1,
	}, &job)
	if err != nil {
		return 0, err
	}
	if status >= 300 || job.ID == "" {
		return status, nil
	}
	r.mu.Lock()
	ref := jobRef{id: job.ID, token: token}
	if len(r.jobs) >= 4096 {
		// Ring-overwrite so a long run doesn't grow the pool unboundedly.
		copy(r.jobs, r.jobs[1:])
		r.jobs[len(r.jobs)-1] = ref
	} else {
		r.jobs = append(r.jobs, ref)
	}
	r.mu.Unlock()
	return status, nil
}

func (r *runner) randomJob(rng *rand.Rand) (jobRef, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.jobs) == 0 {
		return jobRef{}, false
	}
	return r.jobs[rng.Intn(len(r.jobs))], true
}

// do executes a request, drains the body and returns the status code.
// Transport failures surface as errors; HTTP error statuses do not.
func (r *runner) do(req *http.Request, out interface{}) (int, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s: %w", req.URL.Path, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func (r *runner) get(path, token string) (int, error) {
	req, err := http.NewRequest("GET", r.base+path, nil)
	if err != nil {
		return 0, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return r.do(req, nil)
}

// watch follows a job's output over SSE from sequence 0 through its done
// event, as the web page's job monitor does. A stream that ends without a
// done event is a transport failure.
func (r *runner) watch(ref jobRef) (int, error) {
	req, err := http.NewRequest("GET", r.base+"/api/jobs/"+ref.id+"/events?seq=0", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+ref.token)
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("watching %s: %w", ref.id, err)
	}
	// Output is JSON-escaped inside data lines, so a raw "event: done" line
	// can only be the terminal frame.
	if resp.StatusCode < 300 && !bytes.Contains(body, []byte("event: done\n")) {
		return 0, fmt.Errorf("watching %s: stream ended without a done event", ref.id)
	}
	return resp.StatusCode, nil
}

func (r *runner) postJSON(path, token string, body, out interface{}) (int, error) {
	j, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest("POST", r.base+path, bytes.NewReader(j))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return r.do(req, out)
}

// --- scenario decks --------------------------------------------------------

// op names one request kind a deck can deal.
type op int

const (
	opLanguages op = iota
	opList
	opGet
	opWatch
	opLogin
	opSubmit
	opCancel
	opUsage
)

// weighted is one deck entry: an operation and its share of the deck.
type weighted struct {
	op     op
	weight int
}

// decks maps a deck name to its operation mix. "mixed" approximates a lab
// session: mostly reads and status polls, a steady trickle of submissions,
// logins and the occasional cancel.
var decks = map[string][]weighted{
	"mixed": {
		{opLanguages, 15}, {opList, 25}, {opGet, 25}, {opWatch, 10},
		{opLogin, 10}, {opSubmit, 10}, {opCancel, 5},
	},
	"read": {{opLanguages, 30}, {opList, 30}, {opGet, 30}, {opWatch, 10}},
	// multitenant approximates a contended class: heavy submission pressure
	// from every account plus usage polls, against skewed fair-share weights
	// when the portal is in-process.
	"multitenant": {
		{opSubmit, 35}, {opUsage, 15}, {opList, 15}, {opGet, 20},
		{opWatch, 10}, {opCancel, 5},
	},
	"submit":    {{opSubmit, 70}, {opCancel, 30}},
	"login":     {{opLogin, 100}},
	"languages": {{opLanguages, 100}},
	"get":       {{opGet, 100}},
	"list":      {{opList, 100}},
	"watch":     {{opWatch, 100}},
}

// pickOp deals one operation from the deck with the worker's private rand.
func pickOp(mix []weighted, rng *rand.Rand) op {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	n := rng.Intn(total)
	for _, w := range mix {
		if n < w.weight {
			return w.op
		}
		n -= w.weight
	}
	return mix[len(mix)-1].op
}

// outcome classifies one request's result.
type outcome int

const (
	outcomeOK          outcome = iota
	outcomeClient              // 4xx other than 429: the request itself was bad
	outcomeServer              // 5xx: the server failed
	outcomeTransport           // timeout, refused connection
	outcomeRateLimited         // 429: throttled by the per-user token bucket
)

// classify maps a status/error pair to its bucket. 429 is split out from
// the other 4xx: under a fairness experiment being throttled is the signal
// under measurement, not a malformed request.
func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return outcomeTransport
	case status == http.StatusTooManyRequests:
		return outcomeRateLimited
	case status >= 500:
		return outcomeServer
	case status >= 400:
		return outcomeClient
	}
	return outcomeOK
}

// execute performs one operation and classifies the outcome. A cancel
// racing a finished job (409/422-style rejections) is expected traffic, not
// a failure; 429 counts in its own rate-limited bucket, everything else 4xx
// as a client error, 5xx as a server error, and a transport failure
// (timeout, refused) as its own bucket.
func (r *runner) execute(o op, token string, rng *rand.Rand) outcome {
	var status int
	var err error
	switch o {
	case opLanguages:
		status, err = r.get("/api/languages", token)
	case opList:
		status, err = r.get("/api/jobs?limit=16", token)
	case opUsage:
		status, err = r.get("/api/usage", token)
	case opGet:
		if ref, ok := r.randomJob(rng); ok {
			status, err = r.get("/api/jobs/"+ref.id, ref.token)
		} else {
			status, err = r.get("/api/jobs?limit=1", token)
		}
	case opWatch:
		if ref, ok := r.randomJob(rng); ok {
			status, err = r.watch(ref)
		} else {
			status, err = r.get("/api/jobs?limit=1", token)
		}
	case opLogin:
		user := fmt.Sprintf("loadgen%d", rng.Intn(len(r.tokens)))
		status, err = r.postJSON("/api/login", "", map[string]string{"user": user, "password": loadgenPassword}, nil)
	case opSubmit:
		status, err = r.submitJob(token)
	case opCancel:
		ref, ok := r.randomJob(rng)
		if !ok {
			return outcomeOK
		}
		status, err = r.postJSON("/api/jobs/"+ref.id+"/cancel", ref.token, map[string]string{}, nil)
		if err == nil && status >= 400 && status < 500 && status != http.StatusTooManyRequests {
			return outcomeOK // already finished: expected
		}
	}
	return classify(status, err)
}

// --- open-loop engine ------------------------------------------------------

// result is one load run's outcome.
type result struct {
	completed     int
	dropped       int // backlog overflow: arrivals the workers never absorbed
	clientErrs    int
	serverErrs    int
	transportErrs int
	rateLimited   int // 429 responses: throttled, not failed
	elapsed       time.Duration
	latencies     []time.Duration // sorted on return
}

// worker is one concurrent executor with private state, so the hot loop
// shares nothing but the arrival channel and the job pool.
type worker struct {
	rng         *rand.Rand
	token       string
	lats        []time.Duration
	client      int
	server      int
	transport   int
	rateLimited int
}

// fire runs the open-loop load: a dispatcher emits intended start times at
// the target rate regardless of how the server keeps up, and workers stamp
// each completion against that intended time. Saturation therefore shows up
// where it belongs — in the tail latencies — instead of quietly lowering
// the offered rate.
func (r *runner) fire(mix []weighted, rps float64, duration time.Duration, conns int, seed int64) result {
	arrivals := make(chan time.Time, 1<<16)
	var dropped int

	workers := make([]*worker, conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{
			rng:   rand.New(rand.NewSource(seed + int64(i))),
			token: r.tokens[i%len(r.tokens)],
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for intended := range arrivals {
				o := pickOp(mix, w.rng)
				out := r.execute(o, w.token, w.rng)
				w.lats = append(w.lats, time.Since(intended))
				switch out {
				case outcomeClient:
					w.client++
				case outcomeServer:
					w.server++
				case outcomeTransport:
					w.transport++
				case outcomeRateLimited:
					w.rateLimited++
				}
			}
		}()
	}

	start := time.Now()
	interval := float64(time.Second) / rps
	for i := 0; ; i++ {
		intended := start.Add(time.Duration(float64(i) * interval))
		if intended.Sub(start) >= duration {
			break
		}
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case arrivals <- intended:
		default:
			dropped++
		}
	}
	close(arrivals)
	wg.Wait()
	elapsed := time.Since(start)

	res := result{dropped: dropped, elapsed: elapsed}
	for _, w := range workers {
		res.latencies = append(res.latencies, w.lats...)
		res.clientErrs += w.client
		res.serverErrs += w.server
		res.transportErrs += w.transport
		res.rateLimited += w.rateLimited
	}
	res.completed = len(res.latencies)
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res
}

// percentile reads quantile q (0..1) from sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func meanNs(sorted []time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return float64(sum.Nanoseconds()) / float64(len(sorted))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// report prints the human-readable summary.
func report(w io.Writer, deck string, rps float64, res result) {
	achieved := float64(res.completed) / res.elapsed.Seconds()
	fmt.Fprintf(w, "deck=%s target=%.1f rps achieved=%.1f rps (%d requests in %v, %d backlog-dropped)\n",
		deck, rps, achieved, res.completed, res.elapsed.Round(time.Millisecond), res.dropped)
	fmt.Fprintf(w, "latency from intended arrival: p50=%.3fms p90=%.3fms p99=%.3fms p99.9=%.3fms max=%.3fms\n",
		ms(percentile(res.latencies, 0.50)), ms(percentile(res.latencies, 0.90)),
		ms(percentile(res.latencies, 0.99)), ms(percentile(res.latencies, 0.999)),
		ms(percentile(res.latencies, 1.0)))
	fmt.Fprintf(w, "errors: client=%d server=%d transport=%d rate-limited=%d\n",
		res.clientErrs, res.serverErrs, res.transportErrs, res.rateLimited)
}

// benchLine renders the run as one `go test -bench` result line so the
// output feeds cmd/benchjson unchanged: ns/op is the mean latency, custom
// metrics ride as tab-separated "<value> <unit>" pairs.
func benchLine(deck string, rps float64, res result) string {
	name := "BenchmarkLoadgen" + strings.ToUpper(deck[:1]) + deck[1:]
	achieved := float64(res.completed) / res.elapsed.Seconds()
	return fmt.Sprintf("%s \t %d \t %.1f ns/op"+
		"\t%.1f rps-target\t%.1f rps-achieved"+
		"\t%.3f p50-ms\t%.3f p99-ms\t%.3f p999-ms"+
		"\t%d dropped\t%d errs-client\t%d errs-server\t%d errs-transport\t%d rate-limited",
		name, res.completed, meanNs(res.latencies),
		rps, achieved,
		ms(percentile(res.latencies, 0.50)), ms(percentile(res.latencies, 0.99)), ms(percentile(res.latencies, 0.999)),
		res.dropped, res.clientErrs, res.serverErrs, res.transportErrs, res.rateLimited)
}
