package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// A workload is one class of users sharing the grid. Every op's choices
// are a pure function of (seed, op index) — see plan — so however the two
// workers interleave, a seed always runs the same ops.
type workload struct {
	name     string
	prefix   string // account names are prefix + two digits
	accounts int
	// source is the file each account uploads at set-up.
	source func(account string) (path, src string)
	setup  func(r *round) error
	// phase runs n ops and returns once they are done.
	phase func(r *round, start time.Time, n int)
	plan  func(seed int64, i int) plan
	// A run is rounds rounds; each boots a fresh system and runs a fixed
	// amount of work, rate × seconds / rounds ops, where rate is the
	// workload's nominal ops per second. Fixed work keeps the store each
	// round builds, and with it the live heap, the same size however fast
	// the program runs.
	rounds int
	rate   float64
	// headline is the metric trace.overhead_pct compares between the
	// untraced and traced rounds.
	headline string
}

// plan is one op's choices.
type plan struct {
	account int
	edit    bool // classroom: upload an edited copy before submitting
	read    int  // dashboard: index into dashboardReads; -1 submits a job
	target  int  // dashboard: which of the account's seeded jobs to read
}

var workloads = []*workload{classroom, mpiLab, dashboard, flood}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix is SplitMix64 over (seed, i, salt).
func mix(seed int64, i int, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xD1B54A32D192ED03 + salt*0x8CB92BA72F3D8DD7
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pick is op i's choice among n options for one decision (salt).
func pick(seed int64, i int, salt uint64, n int) int {
	return int(mix(seed, i, salt) % uint64(n))
}

// classroom: the paper's class of 19 in the edit–submit–watch loop. Open
// loop at a fixed 30 submissions/s over 2 workers; a quarter of the ops
// upload a uniquely edited copy first (a compile miss), and every op
// submits Lab 1 and watches its SSE stream to done.
const classroomRate = 30

// sendGrace is how late an open-loop arrival may be sent before it counts
// as one the generator could not send.
const sendGrace = 5 * time.Second

var classroom = &workload{
	name:     "classroom",
	prefix:   "student",
	accounts: 19,
	source:   func(string) (string, string) { return "/lab1.mc", lab1Source() },
	setup:    warmUp("/lab1.mc", 1),
	phase:    classroomPhase,
	plan: func(seed int64, i int) plan {
		return plan{account: pick(seed, i, 1, 19), edit: pick(seed, i, 2, 4) == 0, read: -1}
	},
	rounds:   4,
	rate:     classroomRate,
	headline: "turnaround_p50_ms",
}

// arrival is the intended send offset of classroom op i: fixed spacing,
// because with Poisson bursts and only two connections the queueing
// happens inside the generator.
func arrival(i int) time.Duration { return time.Duration(i) * time.Second / classroomRate }

func classroomPhase(r *round, start time.Time, n int) {
	var next atomic.Int64
	r.parallel(func(c *client) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			intended := start.Add(arrival(i))
			if d := time.Until(intended); d > 0 {
				time.Sleep(d)
			}
			o := &op{i: i, intended: intended}
			if time.Since(intended) > sendGrace {
				o.fail("arrival could not be sent in time")
				r.endOp(o, time.Now())
				continue
			}
			p := r.w.plan(r.seed, i)
			a := r.accts[p.account]
			path := "/lab1.mc"
			if p.edit {
				path = fmt.Sprintf("/edits/op%06d.mc", i)
				res, err := c.do(http.MethodPut, "/api/files/content?path="+path, a.token, []byte(editedLab1(i)))
				if !r.request(o, "request", res, err) {
					r.endOp(o, time.Now())
					continue
				}
			}
			if j := r.submit(c, o, a, path, 1, true, checkLab1); j != nil {
				r.watchJob(c, o, a, j)
			}
			r.endOp(o, time.Now())
		}
	})
	r.res.wall = time.Since(start)
}

// mpi-lab: two students iterate on a 16-rank MPI program. Closed loop, 2
// clients, each submitting and watching one job at a time; 32 rank
// goroutines on 2 cores put the VM and MPI layers on the critical path.
var mpiLab = &workload{
	name:     "mpi-lab",
	prefix:   "mpi",
	accounts: 19,
	source:   func(string) (string, string) { return "/pi.mc", piSource },
	setup:    warmUp("/pi.mc", piRanks),
	phase: func(r *round, start time.Time, n int) {
		r.closedLoop(start, n, func(c *client, o *op, p plan) {
			a := r.accts[p.account]
			if j := r.submit(c, o, a, "/pi.mc", piRanks, true, checkPi); j != nil {
				r.watchJob(c, o, a, j)
			}
		})
	},
	plan: func(seed int64, i int) plan {
		return plan{account: pick(seed, i, 1, 19), read: -1}
	},
	// Two long rounds: each needs 100 jobs for its p90 to be resolved.
	rounds:   2,
	rate:     11,
	headline: "turnaround_p50_ms",
}

// dashboard: students and the instructor refreshing job lists, job pages,
// traces, cluster stats, usage and file lists. Closed loop, 2 clients,
// reads spread over 64 accounts so no user's 500/s token bucket throttles;
// 1% of ops submit a one-line job so reads see a changing store.
const dashboardSeedJobs = 200

var dashboardReads = []string{"list", "job", "trace", "stats", "usage", "files"}

var dashboard = &workload{
	name:     "dashboard",
	prefix:   "user",
	accounts: 64,
	// The file is named after its owner so a file listing carries the
	// account it was requested for.
	source: func(a string) (string, string) { return "/" + a + ".mc", okSource },
	setup:  dashboardSetup,
	phase: func(r *round, start time.Time, n int) {
		r.closedLoop(start, n, func(c *client, o *op, p plan) {
			a := r.accts[p.account]
			if p.read < 0 {
				r.submit(c, o, a, "/"+a.name+".mc", 1, false, checkOK)
				return
			}
			ids := r.seeded[p.account]
			path, want := readTarget(dashboardReads[p.read], a.name, ids[p.target%len(ids)])
			res, err := c.do(http.MethodGet, path, a.token, nil)
			if !r.request(o, "request", res, err) {
				return
			}
			if !bytes.Contains(res.body, []byte(want)) {
				o.fail(fmt.Sprintf("GET %s: body lacks %s: %s", path, want, clip(res.body)))
				return
			}
			o.read = res.recv.Sub(o.intended)
		})
	},
	plan: func(seed int64, i int) plan {
		p := plan{account: pick(seed, i, 1, 64), read: -1, target: pick(seed, i, 4, 1<<16)}
		if pick(seed, i, 3, 100) != 0 {
			p.read = pick(seed, i, 5, len(dashboardReads))
		}
		return p
	},
	rounds:   5,
	rate:     24500,
	headline: "reads_per_s",
}

// readTarget is a dashboard read's path and what its body must carry: the
// requested job ID or account, or for the account-free cluster stats the
// grid's size.
func readTarget(kind, acct, jobID string) (path, want string) {
	switch kind {
	case "list":
		return "/api/jobs?limit=16", `"owner":"` + acct + `"`
	case "job":
		return "/api/jobs/" + jobID, `"id":"` + jobID + `"`
	case "trace":
		return "/api/jobs/" + jobID + "/trace", `"id":"` + jobID + `"`
	case "stats":
		return "/api/cluster/stats", `"total_nodes":64`
	case "usage":
		return "/api/usage", `"user":"` + acct + `"`
	default: // files
		return "/api/files", `"` + acct + `.mc"`
	}
}

// dashboardSetup seeds finished jobs, spread round-robin over the accounts,
// for the reads to find.
func dashboardSetup(r *round) error {
	r.seeded = make([][]string, len(r.accts))
	var ids []string
	for k := 0; k < dashboardSeedJobs; k++ {
		a := r.accts[k%len(r.accts)]
		id, err := r.runSetupJob(a, "/"+a.name+".mc", 1)
		if err != nil {
			return err
		}
		r.seeded[k%len(r.accts)] = append(r.seeded[k%len(r.accts)], id)
		ids = append(ids, id)
	}
	return r.waitJobs(ids)
}

// flood: the deadline rush. Two submitters post a one-line job back to back
// across 19 accounts; submissions wait while the queue holds floodWindow
// jobs, so the 256-job admission cap (queued plus up to 64 running) never
// rejects one. jobs_per_s runs from the first submit to the last job's
// finish.
const (
	floodWindow = 128
	floodPoll   = 100 * time.Microsecond
)

var flood = &workload{
	name:     "flood",
	prefix:   "rush",
	accounts: 19,
	source:   func(string) (string, string) { return "/ok.mc", okSource },
	setup:    warmUp("/ok.mc", 1),
	phase:    floodPhase,
	plan: func(seed int64, i int) plan {
		return plan{account: pick(seed, i, 1, 19), read: -1}
	},
	// Many short rounds: every job stays in the store at about 14 KiB, so
	// a round's store is the bulk of the heap.
	rounds:   20,
	rate:     7000,
	headline: "jobs_per_s",
}

func floodPhase(r *round, start time.Time, n int) {
	var next atomic.Int64
	r.parallel(func(c *client) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			for r.sys.Jobs.QueuedCount() >= floodWindow {
				time.Sleep(floodPoll)
			}
			o := &op{i: i, intended: time.Now()}
			a := r.accts[r.w.plan(r.seed, i).account]
			r.submit(c, o, a, "/ok.mc", 1, false, checkOK)
			r.endOp(o, time.Now())
		}
	})
	// The phase lasts until the queue drains: first submit sent to the last
	// job's finish. A job that does not finish fails in settle.
	deadline, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	var first, last time.Time
	for _, j := range r.jobs {
		job, err := r.sys.Jobs.Get(j.id)
		if err != nil || !finished(job, deadline.Done()) {
			continue
		}
		if first.IsZero() || j.sent.Before(first) {
			first = j.sent
		}
		if f := job.Snapshot().Finished; f.After(last) {
			last = f
		}
	}
	r.res.wall = last.Sub(first)
}

// warmUp is a set-up that runs one job of the workload's program, filling
// the artifact cache and the VM pools before timing starts.
func warmUp(path string, ranks int) func(r *round) error {
	return func(r *round) error {
		id, err := r.runSetupJob(r.accts[0], path, ranks)
		if err != nil {
			return err
		}
		return r.waitJobs([]string{id})
	}
}

// closedLoop runs n ops on the two workers, each starting its next op as
// soon as its last one ends.
func (r *round) closedLoop(start time.Time, n int, body func(c *client, o *op, p plan)) {
	var next atomic.Int64
	r.parallel(func(c *client) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			o := &op{i: i, intended: time.Now()}
			body(c, o, r.w.plan(r.seed, i))
			r.endOp(o, time.Now())
		}
	})
	r.res.wall = time.Since(start)
}
