// Command portalbench is the portal's end-to-end benchmark. It boots a
// System in process — the paper's 4×16 grid from config.Default(), the
// durable provider booted through Recover as portald does with -data-dir
// (its WAL written before every acknowledgement, fsync off; see boot) —
// serves it on a loopback listener, and drives one of four seeded
// classroom workloads through it over at most two connections: the whole
// path from the HTTP edge through auth, rate limit, admission, the WAL ack
// barrier, queue, dispatch, compile, VM/MPI ranks and the output ring to
// SSE delivery. Every job's result is checked.
//
//	portalbench --workload classroom --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// rounds with rounds that carry the seam wrappers, and prints the
// per-layer metrics. Human-readable lines come first; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. Any failed operation makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run writes: the WAL directories and the
// traced runs' spans.
const buildDir = ".bench_build"

// endToEndNames are the metrics BENCHMARK.json bounds. Each is defined the
// same way on every workload, because every run must report all of them.
// turnaround_p90_ms and submit_ack_p50_ms are printed but not bounded: from
// run to run the tail moved by more than a tenth on classroom and flood,
// and the ack by up to a quarter on classroom and mpi-lab, where it waits
// on idle vCPUs waking and on 32 busy rank goroutines. flood's jobs_per_s,
// which two submitters bound at two acks, carries the ack path instead.
var endToEndNames = []string{
	"turnaround_p50_ms", "jobs_per_s", "requests_per_s", "heap_live_mb", "setup_s",
}

// perLayerNames are the per-layer metrics of the JSON line: those every
// workload gives samples for. The traced run also prints, by name, the
// ones only some workloads exercise (edge reads and uploads, SSE delivery,
// the barrier's p99).
var perLayerNames = []string{
	"portal.submit.server_us_p50", "portal.client_us_p50", "portal.non2xx",
	"tenancy.admit_us_p50", "tenancy.admit_calls", "tenancy.rate_limited", "tenancy.steps_per_job",
	"dataprovider.sync_us_p50", "dataprovider.records_per_job", "dataprovider.records_per_batch",
	"dataprovider.batches_per_job", "dataprovider.wal_bytes_per_job",
	"scheduler.queue_ms_p50", "scheduler.queue_ms_p90", "scheduler.wakes_per_job", "scheduler.dispatch_wait_us_mean",
	"toolchain.compile_us_p50", "toolchain.cache_hit_ratio", "toolchain.compiles",
	"minic.run_ms_p50", "minic.run_ms_p90", "minic.steps_per_s",
	"portal.sse.flushes_per_job", "portal.sse.events_per_job", "jobs.output_bytes_per_job", "jobs.dropped_bytes",
	"runtime.cpu_ms_per_op", "runtime.alloc_kb_per_op", "runtime.gc_cycles_per_op",
	"loadgen.lag_p99_ms", "loadgen.samples", "trace.unattributed_ms_p50", "trace.overhead_pct",
	"loadgen.self_ms_per_op", "portal.self_ms_per_op", "tenancy.self_ms_per_op", "dataprovider.self_ms_per_op",
	"scheduler.self_ms_per_op", "toolchain.self_ms_per_op", "minic.self_ms_per_op",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("portalbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "classroom, mpi-lab, dashboard, flood, or all")
	seed := fl.Int64("seed", 1, "seed of every input the run generates")
	seconds := fl.Int("seconds", 20, "measured seconds at the workloads' nominal rates")
	traceFlag := fl.Int("trace", 0, "1: add traced rounds and report per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "portalbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "portalbench: need --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	traced := *traceFlag == 1
	dataRoot := filepath.Join(buildDir, "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "portalbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# portalbench seed=%d seconds=%d trace=%v wal=%s on %s\n",
		*seed, *seconds, traced, dataRoot, fsType(dataRoot))

	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		var spans *spanLog
		if traced {
			var err error
			if spans, err = createSpanLog(filepath.Join(buildDir, "spans-"+w.name+".jsonl.gz")); err != nil {
				fmt.Fprintf(stderr, "portalbench: %v\n", err)
				return 1
			}
		}
		res, err := runWorkload(w, *seed, *seconds, spans, dataRoot)
		if err != nil {
			fmt.Fprintf(stderr, "portalbench: %s: %v\n", w.name, err)
			return 1
		}
		ms, names := endToEnd(res.untraced), endToEndNames
		if traced {
			ms = perLayer(w, res.untraced, res.traced)
			names = perLayerNames
		}
		report(stdout, w.name, ms, names)
		attempted, failed := res.counts()
		out.Attempted += attempted
		out.Failed += failed
		for _, reason := range res.reasons(5) {
			fmt.Fprintf(stderr, "portalbench: %s: %s\n", w.name, reason)
		}
		byName := map[string]metric{}
		for _, m := range ms {
			byName[m.Name] = m
		}
		for _, n := range names {
			m, ok := byName[n]
			if !ok {
				fmt.Fprintf(stderr, "portalbench: %s: no value for %s\n", w.name, n)
				return 1
			}
			key := n
			if len(selected) > 1 {
				key = w.name + "." + n
			}
			out.Metrics[key] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "portalbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult holds a run's rounds. Untraced and traced round k share their
// seed, so both see the same inputs.
type runResult struct {
	untraced, traced []*roundResult
}

func runWorkload(w *workload, seed int64, seconds int, spans *spanLog, dataRoot string) (*runResult, error) {
	n := max(1, int(w.rate*float64(seconds)/float64(w.rounds)+0.5))
	res := &runResult{}
	for k := 0; k < w.rounds; k++ {
		s := seed*1000 + int64(k)
		u, err := runRound(w, s, n, false, dataRoot)
		if err != nil {
			return nil, err
		}
		res.untraced = append(res.untraced, u)
		if spans == nil {
			continue
		}
		t, err := runRound(w, s, n, true, dataRoot)
		if err != nil {
			return nil, err
		}
		// A round's spans are written as soon as it ends, so a run holds
		// one round's at a time.
		if err := spans.write(t.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		t.spans = nil
		res.traced = append(res.traced, t)
	}
	if spans != nil {
		if err := spans.close(); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

func (r *runResult) all() []*roundResult {
	return append(append([]*roundResult(nil), r.untraced...), r.traced...)
}

func (r *runResult) counts() (attempted, failed int) {
	for _, rr := range r.all() {
		attempted += rr.ops
		failed += len(rr.failed)
	}
	return attempted, failed
}

// reasons lists up to n failures, for standard error.
func (r *runResult) reasons(n int) []string {
	var out []string
	for k, rr := range r.all() {
		ops := make([]int, 0, len(rr.failed))
		for i := range rr.failed {
			ops = append(ops, i)
		}
		sort.Ints(ops)
		for _, i := range ops {
			if len(out) == n {
				return out
			}
			out = append(out, fmt.Sprintf("round %d op %d: %s", k, i, rr.failed[i]))
		}
	}
	return out
}

// endToEnd computes the metrics a user of the portal would see. Each is
// computed per round and reported as the median over the rounds, which
// keeps a round slowed by a noisy neighbour from moving the result; N is
// the samples pooled over the rounds. The first seven are bounded in
// BENCHMARK.json; the rest are printed for the workloads that have samples
// of them.
func endToEnd(rr []*roundResult) []metric {
	type perRound func(r *roundResult) metric
	rate := func(name string, count func(r *roundResult) int) perRound {
		return func(r *roundResult) metric {
			n := count(r)
			return metric{Name: name, Unit: "1/s", Value: ratio(float64(n), r.wall.Seconds()), N: n}
		}
	}
	all := []perRound{
		func(r *roundResult) metric { return r.turnaround.q("turnaround_p50_ms", "ms", 0.5) },
		func(r *roundResult) metric { return r.turnaround.q("turnaround_p90_ms", "ms", 0.9) },
		func(r *roundResult) metric { return r.submitAck.q("submit_ack_p50_ms", "ms", 0.5) },
		rate("jobs_per_s", func(r *roundResult) int { return r.jobsOK }),
		rate("requests_per_s", func(r *roundResult) int { return r.requests }),
		func(r *roundResult) metric {
			return metric{Name: "heap_live_mb", Unit: "MiB", Value: r.heapLive / (1 << 20), N: 1}
		},
		func(r *roundResult) metric { return metric{Name: "setup_s", Unit: "s", Value: r.setup.Seconds(), N: 1} },
	}
	if rr[0].firstOut.n() > 0 {
		all = append(all, func(r *roundResult) metric { return r.firstOut.q("first_output_p50_ms", "ms", 0.5) })
	}
	if rr[0].reads.n() > 0 {
		all = append(all,
			rate("reads_per_s", func(r *roundResult) int { return r.reads.n() }),
			func(r *roundResult) metric { return r.reads.q("read_p99_ms", "ms", 0.99) })
	}
	all = append(all, func(r *roundResult) metric {
		return metric{Name: "failed_frac", Unit: "ratio", Value: ratio(float64(len(r.failed)), float64(r.ops)), N: r.ops}
	})
	out := make([]metric, len(all))
	for i, f := range all {
		vals := make([]float64, len(rr))
		for k, r := range rr {
			m := f(r)
			vals[k] = m.Value
			out[i].Name, out[i].Unit = m.Name, m.Unit
			out[i].N += m.N
			out[i].Unresolved = out[i].Unresolved || m.Unresolved
		}
		out[i].Value = median(vals)
	}
	return out
}

// perLayer computes the per-layer metrics: the seam timings and job
// phases from the traced rounds, counter deltas over their phases, and the
// runtime and generator figures from the untraced rounds.
func perLayer(w *workload, untraced, traced []*roundResult) []metric {
	server := map[string]*dist{"read": {}, "submit": {}, "upload": {}}
	var client, admit, barrier, queue, compile, run, delivery, unattr dist
	var jobsN, watched, outBytes, tracedOps int
	var dropped, wakes int64
	var runSecs float64
	var d counters
	self := map[string]int64{}
	for _, r := range traced {
		for class, h := range server {
			h.merge(r.server[class])
		}
		client.merge(&r.client)
		admit.merge(&r.admit)
		barrier.merge(&r.barrier)
		for layer, ns := range r.self {
			self[layer] += ns
		}
		tracedOps += r.ops
		queue.merge(&r.queue)
		compile.merge(&r.compileUS)
		run.merge(&r.run)
		delivery.merge(&r.delivery)
		unattr.merge(&r.unattr)
		jobsN += r.jobsOK
		watched += r.watched
		outBytes += r.outBytes
		dropped += r.dropped
		runSecs += r.runSecs
		d = d.add(r.delta)
		wakes += r.wakes
	}
	var non2xx, limited, ops int
	var cpu time.Duration
	var alloc, cycles uint64
	var lag dist
	for _, r := range untraced {
		ops += r.ops
		cpu += r.cpu
		alloc += r.allocated
		cycles += r.gcCycles
		lag.merge(&r.lag)
	}
	for _, r := range append(append([]*roundResult(nil), untraced...), traced...) {
		non2xx += r.non2xx
		limited += r.limited
	}
	jobs := float64(jobsN)
	count := func(name string, v float64) metric { return metric{Name: name, Unit: "count", Value: v} }
	// A ratio carries its base as its sample count.
	per := func(name, unit string, num, den float64) metric {
		return metric{Name: name, Unit: unit, Value: ratio(num, den), N: int(den)}
	}
	out := []metric{
		server["read"].q("portal.read.server_us_p50", "us", 0.5),
		server["read"].q("portal.read.server_us_p99", "us", 0.99),
		server["submit"].q("portal.submit.server_us_p50", "us", 0.5),
		server["upload"].q("portal.upload.server_us_p50", "us", 0.5),
		client.q("portal.client_us_p50", "us", 0.5),
		count("portal.non2xx", float64(non2xx)),
		admit.q("tenancy.admit_us_p50", "us", 0.5),
		count("tenancy.admit_calls", float64(admit.n())),
		count("tenancy.rate_limited", float64(limited)),
		per("tenancy.steps_per_job", "steps", float64(d.steps), jobs),
		barrier.q("dataprovider.sync_us_p50", "us", 0.5),
		barrier.q("dataprovider.sync_us_p99", "us", 0.99),
		per("dataprovider.records_per_job", "records", float64(d.walRecords), jobs),
		per("dataprovider.records_per_batch", "records", float64(d.walRecords), float64(d.batches)),
		per("dataprovider.fsyncs_per_job", "fsyncs", float64(d.fsyncs), jobs),
		per("dataprovider.batches_per_job", "batches", float64(d.batches), jobs),
		per("dataprovider.wal_bytes_per_job", "bytes", float64(d.walBytes), jobs),
		queue.q("scheduler.queue_ms_p50", "ms", 0.5),
		queue.q("scheduler.queue_ms_p90", "ms", 0.9),
		per("scheduler.wakes_per_job", "wakes", float64(wakes), jobs),
		per("scheduler.dispatch_wait_us_mean", "us", float64(d.latSumUS), float64(d.dispatched)),
		compile.q("toolchain.compile_us_p50", "us", 0.5),
		per("toolchain.cache_hit_ratio", "ratio", float64(d.hits),
			float64(d.hits+d.compiles+d.dedups)),
		count("toolchain.compiles", float64(d.compiles)),
		run.q("minic.run_ms_p50", "ms", 0.5),
		run.q("minic.run_ms_p90", "ms", 0.9),
		per("minic.steps_per_s", "1/s", float64(d.steps), runSecs),
		delivery.q("portal.sse.delivery_ms_p50", "ms", 0.5),
		delivery.q("portal.sse.delivery_ms_p90", "ms", 0.9),
		per("portal.sse.flushes_per_job", "flushes", float64(d.sseFlushes), float64(watched)),
		per("portal.sse.events_per_job", "events", float64(d.sseEvents), float64(watched)),
		per("jobs.output_bytes_per_job", "bytes", float64(outBytes), jobs),
		count("jobs.dropped_bytes", float64(dropped)),
		per("runtime.cpu_ms_per_op", "ms", ms(cpu), float64(ops)),
		per("runtime.alloc_kb_per_op", "KiB", float64(alloc)/1024, float64(ops)),
		per("runtime.gc_cycles_per_op", "cycles", float64(cycles), float64(ops)),
		lag.q("loadgen.lag_p99_ms", "ms", 0.99),
		count("loadgen.samples", float64(ops)),
		unattr.q("trace.unattributed_ms_p50", "ms", 0.5),
		{Name: "trace.overhead_pct", Unit: "%", Value: overheadPct(w, untraced, traced)},
	}
	for _, l := range layers {
		out = append(out, per(l+".self_ms_per_op", "ms", float64(self[l])/1e6, float64(tracedOps)))
	}
	return out
}

// overheadPct is how much the traced rounds lose on the workload's
// headline metric against the untraced rounds of the same run: positive
// means tracing made the run slower.
func overheadPct(w *workload, untraced, traced []*roundResult) float64 {
	find := func(rr []*roundResult) float64 {
		for _, m := range endToEnd(rr) {
			if m.Name == w.headline {
				return m.Value
			}
		}
		return 0
	}
	u, t := find(untraced), find(traced)
	if strings.HasSuffix(w.headline, "_per_s") {
		return ratio(u-t, u) * 100
	}
	return ratio(t-u, u) * 100
}

// report prints one line per metric: value, unit and the samples (or, for
// a ratio, the base) behind it. Metrics the JSON line leaves out are
// marked, and a percentile the workload has no samples for reads n/a.
func report(w io.Writer, workload string, ms []metric, inJSON []string) {
	listed := map[string]bool{}
	for _, n := range inJSON {
		listed[n] = true
	}
	for _, m := range ms {
		var note string
		switch {
		case m.Unresolved && m.N == 0:
			fmt.Fprintf(w, "%-10s %-34s %14s %-7s n=0  (no samples in this workload)\n", workload, m.Name, "n/a", m.Unit)
			continue
		case m.Unresolved:
			note = "  (unresolved: fewer than 10 samples beyond this percentile)"
		}
		if !listed[m.Name] {
			note += "  [printed only]"
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "%-10s %-34s %14.4f %-7s %s%s\n", workload, m.Name, m.Value, m.Unit, n, note)
	}
}

// fsType names the filesystem holding dir, so the output states what the
// WAL's fsyncs measured.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem 0x%x", uint64(st.Type))
}
