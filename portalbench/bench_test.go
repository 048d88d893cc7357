package main

import (
	"bufio"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/trace"
)

func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 19, 20, 99, 100, 101, 999, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			// Reference: the smallest sample with at least q·n samples at
			// or below it.
			var want float64
			for i, x := range xs {
				if float64(i+1) >= q*float64(n)-1e-9 {
					want = x
					break
				}
			}
			got, _ := percentile(xs, q)
			if got != want {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, c.q); ok != c.want {
			t.Errorf("n=%d q=%v: resolved=%v, want %v", c.n, c.q, ok, c.want)
		}
		var d dist
		for _, x := range xs {
			d.add(x)
		}
		if m := d.q("m", "ms", c.q); m.Unresolved == c.want || m.N != c.n {
			t.Errorf("n=%d q=%v: metric %+v", c.n, c.q, m)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1}, 2.5}, {[]float64{9, 1, 5}, 5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// plans is the first n ops of a workload's run, computed concurrently from
// the top so that any dependence on call order would show.
func plans(w *workload, seed int64, n int) []plan {
	out := make([]plan, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := n - 1 - g; i >= 0; i -= 4 {
				out[i] = w.plan(seed, i)
			}
		}(g)
	}
	wg.Wait()
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	const n = 20000
	for _, w := range workloads {
		a, b := plans(w, 7, n), plans(w, 7, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", w.name)
		}
		if reflect.DeepEqual(a, plans(w, 8, n)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
		var edits, submits int
		seen := map[int]bool{}
		for _, p := range a {
			seen[p.account] = true
			if p.edit {
				edits++
			}
			if p.read < 0 {
				submits++
			}
		}
		if len(seen) != w.accounts {
			t.Errorf("%s: ops use %d of %d accounts", w.name, len(seen), w.accounts)
		}
		switch w.name {
		case "classroom":
			if f := float64(edits) / n; math.Abs(f-0.25) > 0.02 {
				t.Errorf("classroom: %.3f of ops edit, want about 0.25", f)
			}
		case "dashboard":
			if f := float64(submits) / n; math.Abs(f-0.01) > 0.003 {
				t.Errorf("dashboard: %.4f of ops submit, want about 0.01", f)
			}
		default:
			if submits != n {
				t.Errorf("%s: %d of %d ops submit", w.name, submits, n)
			}
		}
	}
	for i := 0; i < 100; i++ {
		if got, want := arrival(i), time.Duration(i)*time.Second/30; got != want {
			t.Fatalf("arrival(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestPhasesSumToTurnaround(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	sp := func(name string, a, b float64) trace.SpanJSON {
		return trace.SpanJSON{Name: name, Start: at(a), End: at(b)}
	}
	tr := trace.SpanJSON{Name: "job", Children: []trace.SpanJSON{
		sp("queued", 2, 3), sp("dispatch", 3, 3),
		sp("compile", 3.5, 4),  // 0.5 ms between dispatch and compile
		sp("running", 4.2, 11), // 0.2 ms between compile and running
	}}
	j := &jobRec{
		intended: at(0), watched: true,
		snap: jobs.Snapshot{Submitted: at(2), Started: at(4.2), Finished: at(11)},
		w:    watchResult{done: at(21)},
	}
	p, _, err := jobPhases(j, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := phases{
		intendedToSubmitted: 2 * time.Millisecond, queued: time.Millisecond,
		compile: 500 * time.Microsecond, run: 6800 * time.Microsecond, delivery: 10 * time.Millisecond,
	}
	if p != want {
		t.Fatalf("phases %+v, want %+v", p, want)
	}
	turn := j.turnaround()
	if turn != 21*time.Millisecond {
		t.Fatalf("turnaround %v, want 21ms", turn)
	}
	if u := unattributed(turn, p); u != 700*time.Microsecond || p.sum()+u != turn {
		t.Fatalf("unattributed %v, want the 700µs of gaps between spans", u)
	}

	// Unwatched, the turnaround ends at the recorded finish and there is no
	// delivery phase.
	j.watched = false
	p, _, _ = jobPhases(j, tr)
	if turn := j.turnaround(); p.delivery != 0 || unattributed(turn, p) != 700*time.Microsecond {
		t.Fatalf("unwatched: phases %+v, turnaround %v", p, turn)
	}

	tr.Children = tr.Children[:3]
	if _, _, err := jobPhases(j, tr); err == nil {
		t.Fatal("a trace without a running span was accepted")
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "request", Start: 10, End: 30, Parent: 0},
		{Name: "watch", Start: 20, End: 50, Parent: 0},
		{Name: "run", Start: 90, End: 120, Parent: 0}, // clipped at the op's end
		{Name: "server", Start: 12, End: 28, Parent: 1},
		{Name: "sync", Start: 15, End: 20, Parent: 4},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"loadgen":      100 - 40 - 10,
		"portal":       (20 - 16) + 30 + (16 - 5),
		"minic":        30,
		"dataprovider": 5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestLinkAttachesServerSpansByRequestID(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Job: "job-1"},
		{Name: "request", Start: 10, End: 40, Parent: 0, Job: "job-1", key: "rid-a"},
		{Name: "op", Start: 5, End: 100, Parent: -1, Job: "job-2"},
		{Name: "request", Start: 12, End: 45, Parent: 2, Job: "job-2", key: "rid-b"},
		{Name: "server", Start: 11, End: 38, Parent: -1, key: "rid-a", owner: "alice"},
		{Name: "server", Start: 13, End: 44, Parent: -1, key: "rid-b", owner: "bob"},
		{Name: "admit", Start: 20, End: 21, Parent: -1, owner: "alice"},
		{Name: "sync", Start: 30, End: 35, Parent: -1},
		{Name: "watch", Start: 41, End: 99, Parent: 0, Job: "job-1", key: "rid-c"},
		{Name: "run", Start: 50, End: 90, Parent: 8, Job: "job-1"},
		{Name: "server", Start: 42, End: 98, Parent: -1, key: "rid-c", owner: "alice"},
	}
	link(spans)
	for i, want := range map[int]int{4: 1, 5: 3, 6: 4, 7: 5, 9: 10, 10: 8} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s) parent %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
	if spans[6].Job != "job-1" {
		t.Errorf("admit span job %q, want job-1", spans[6].Job)
	}
}

func TestChecksRejectWrongResultsAndDrops(t *testing.T) {
	lab1 := "RESULT counter 20000\n"
	pi := "step 0 rank 0 partial 0.1\nRESULT pi " + formatFloat(piWant) + "\n"
	for _, c := range []struct {
		name    string
		check   func(string, []byte, int64) error
		state   string
		out     string
		dropped int64
		ok      bool
	}{
		{"lab1", checkLab1, "succeeded", lab1, 0, true},
		{"lab1 wrong count", checkLab1, "succeeded", "RESULT counter 19998\n", 0, false},
		{"lab1 dropped", checkLab1, "succeeded", lab1, 4096, false},
		{"lab1 failed", checkLab1, "failed", lab1, 0, false},
		{"pi", checkPi, "succeeded", pi, 0, true},
		{"pi off by 1e-6", checkPi, "succeeded", "RESULT pi " + formatFloat(piWant+1e-6) + "\n", 0, false},
		{"pi missing", checkPi, "succeeded", "step 0 rank 0 partial 0.1\n", 0, false},
		{"pi dropped", checkPi, "succeeded", pi, 1, false},
		{"ok", checkOK, "succeeded", "ok\n", 0, true},
		{"ok wrong", checkOK, "succeeded", "ko\n", 0, false},
		{"ok dropped", checkOK, "succeeded", "ok\n", 3, false},
	} {
		if err := c.check(c.state, []byte(c.out), c.dropped); (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
	if math.Abs(piWant-math.Pi) > 1e-9 {
		t.Errorf("reference pi %v is not pi", piWant)
	}
}

func formatFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func TestParseSSECountsDroppedBytes(t *testing.T) {
	stream := ": hb\n\n" +
		"event: output\nid: 3\ndata: {\"seq\":3,\"stream\":\"stdout\",\"data\":\"ok\\n\",\"dropped\":0}\n\n" +
		"event: output\nid: 9\ndata: {\"seq\":9,\"stream\":\"stdout\",\"data\":\"RESULT\",\"dropped\":3}\n\n" +
		"event: done\nid: 9\ndata: {\"seq\":9,\"state\":\"succeeded\"}\n\n"
	var w watchResult
	if err := parseSSE(bufio.NewReader(strings.NewReader(stream)), &w); err != nil {
		t.Fatal(err)
	}
	if string(w.output) != "ok\nRESULT" || w.dropped != 3 || w.state != "succeeded" || w.events != 2 ||
		w.done.IsZero() || w.firstOut.IsZero() {
		t.Fatalf("parsed %+v", w)
	}
	if err := checkOK(w.state, []byte("ok\n"), w.dropped); err == nil {
		t.Fatal("a watch with dropped bytes passed its check")
	}
}

func TestDashboardReadTargets(t *testing.T) {
	for _, kind := range dashboardReads {
		path, want := readTarget(kind, "user07", "job-000042")
		if path == "" || want == "" {
			t.Fatalf("%s: empty target", kind)
		}
		if kind == "job" || kind == "trace" {
			if _, other := readTarget(kind, "user07", "job-000043"); other == want {
				t.Errorf("%s: reads of two jobs expect the same body", kind)
			}
		}
	}
}

// TestBenchmarkFileNamesTheReportedMetrics keeps BENCHMARK.json and the
// JSON line in step, name for name.
func TestBenchmarkFileNamesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		file, got []string
	}{
		{"workloads", names(spec.Workloads), ws},
		{"end_to_end", names(spec.EndToEnd), endToEndNames},
		{"per_layer", names(spec.PerLayer), perLayerNames},
	} {
		if !reflect.DeepEqual(c.file, c.got) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark reports %v", c.what, c.file, c.got)
		}
	}
}

// TestRoundsRunCleanly drives each workload end to end for a few ops, once
// untraced and once traced, and requires every op to pass its check.
func TestRoundsRunCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the portal")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runRound(w, 1, 6, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(r.failed) != 0 || r.ops != 6 {
				t.Fatalf("%s traced=%v: %d ops, failures %v", w.name, traced, r.ops, r.failed)
			}
			if traced && len(r.spans) == 0 {
				t.Fatalf("%s: traced round recorded no spans", w.name)
			}
			if e := endToEnd([]*roundResult{r}); len(e) < len(endToEndNames) {
				t.Fatalf("%s: %d end-to-end metrics", w.name, len(e))
			}
		}
	}
}
