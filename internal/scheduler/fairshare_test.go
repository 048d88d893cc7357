package scheduler

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cohort"
	"repro/internal/jobs"
)

// fakeTenant is a test double for the tenancy accountant: fixed weights,
// optional step budgets, and a record of every charge.
type fakeTenant struct {
	mu        sync.Mutex
	weights   map[string]int64
	remaining map[string]int64 // users present here are budget-capped
	charged   map[string]int64
}

func newFakeTenant() *fakeTenant {
	return &fakeTenant{
		weights:   make(map[string]int64),
		remaining: make(map[string]int64),
		charged:   make(map[string]int64),
	}
}

func (f *fakeTenant) Weight(user string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w, ok := f.weights[user]; ok {
		return w
	}
	return 1
}

func (f *fakeTenant) StepsRemaining(user string) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rem, ok := f.remaining[user]
	return rem, ok
}

func (f *fakeTenant) ChargeSteps(user string, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.charged[user] += n
	if rem, ok := f.remaining[user]; ok {
		rem -= n
		if rem < 0 {
			rem = 0
		}
		f.remaining[user] = rem
	}
}

func (f *fakeTenant) chargedOf(user string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.charged[user]
}

func countNotQueued(js []*jobs.Job) int {
	n := 0
	for _, j := range js {
		if j.State() != jobs.StateQueued {
			n++
		}
	}
	return n
}

// TestFairShareLightUserNotStarved is the headline starvation bound: a heavy
// user floods ten thousand jobs, then a light user submits one. A
// submission-order walk would leave the light job behind the entire flood;
// the fair-share pass must dispatch it in the very first pass, because the
// light user's lane has the same deficit as the heavy lane and each lane
// ages per job served.
func TestFairShareLightUserNotStarved(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "heavy", "/job.mc", helloSrc)
	r.addSource(t, "light", "/job.mc", helloSrc)

	heavyJobs := make([]*jobs.Job, 0, 10_000)
	for i := 0; i < 10_000; i++ {
		heavyJobs = append(heavyJobs, r.submit(t, "heavy", "/job.mc", "minic", 1))
	}
	lightJob := r.submit(t, "light", "/job.mc", "minic", 1)

	// One pass fills the 64-node cluster; when a quick job completes while
	// the pass is still walking (it happens under -race, where passes are
	// slow), the freed nodes admit a few more starts — so bound against the
	// actual pass size rather than the literal 64.
	started := r.sched.Tick()
	if started < 64 {
		t.Fatalf("first pass started %d jobs, want at least the full 64-node cluster", started)
	}
	waitFor(t, "light user's job to dispatch", func() bool {
		return lightJob.State() != jobs.StateQueued
	})
	// One of the pass's starts belongs to the light user, the rest to the
	// flood; with no further ticks the rest stay queued. The bound is
	// asserted before driving anything further — extra ticks would
	// legitimately dispatch more of the flood as nodes free up.
	if n := countNotQueued(heavyJobs); n > started-1 {
		t.Fatalf("%d heavy jobs left the queue in one pass of %d starts, want <= %d", n, started, started-1)
	}
	waitFor(t, "light user's job to finish", func() bool {
		return lightJob.State().Terminal()
	})
	if snap := lightJob.Snapshot(); snap.State != jobs.StateSucceeded {
		t.Fatalf("light job: %v (%s)", snap.State, snap.Failure)
	}
}

// TestFairShareCohortFloodBound runs the same flood against a whole class:
// every student in a paper-sized cohort submits one job after the flood and
// all of them must dispatch in the first pass — the bound holds per lane, so
// adding lanes does not dilute it until the cluster itself is smaller than
// the class.
func TestFairShareCohortFloodBound(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "heavy", "/job.mc", helloSrc)

	heavyJobs := make([]*jobs.Job, 0, 10_000)
	for i := 0; i < 10_000; i++ {
		heavyJobs = append(heavyJobs, r.submit(t, "heavy", "/job.mc", "minic", 1))
	}
	class := cohort.New(cohort.PaperClassSize, 1)
	studentJobs := make(map[string]*jobs.Job, class.Size())
	for _, s := range class.Students {
		r.addSource(t, s.Name, "/job.mc", helloSrc)
		studentJobs[s.Name] = r.submit(t, s.Name, "/job.mc", "minic", 1)
	}

	started := r.sched.Tick()
	if started < 64 {
		t.Fatalf("first pass started %d jobs, want at least 64", started)
	}
	for name, j := range studentJobs {
		j := j
		waitFor(t, fmt.Sprintf("%s's job to dispatch", name), func() bool {
			return j.State() != jobs.StateQueued
		})
	}
	if n := countNotQueued(heavyJobs); n > started-class.Size() {
		t.Fatalf("%d heavy jobs dispatched in a pass of %d starts, want <= %d", n, started, started-class.Size())
	}
}

// TestFairShareWeightProportional pins the weighted service ratio: with
// weights 4 vs 1 and both lanes saturated, the favored user must receive at
// least 3× the dispatches of the default user within one full-cluster pass.
func TestFairShareWeightProportional(t *testing.T) {
	ft := newFakeTenant()
	ft.weights["favored"] = 4
	r := newRig(t, Options{Tenant: ft})
	// Each job holds its node until its stdin closes, so the one pass fills
	// the 64 nodes once: a job that finished mid-pass would free its node
	// for the same pass and let both lanes drain toward a 1:1 ratio.
	r.addSource(t, "heavy", "/job.mc", blockingSrc)
	r.addSource(t, "favored", "/job.mc", blockingSrc)

	var heavyJobs, favoredJobs []*jobs.Job
	for i := 0; i < 300; i++ {
		heavyJobs = append(heavyJobs, r.submit(t, "heavy", "/job.mc", "minic", 1))
		favoredJobs = append(favoredJobs, r.submit(t, "favored", "/job.mc", "minic", 1))
	}
	// Release the running jobs before the rig's Stop, which would otherwise
	// wait out its drain timeout on them.
	defer func() {
		for _, j := range append(heavyJobs, favoredJobs...) {
			j.Stdin.Close()
		}
	}()
	started := r.sched.Tick()
	if started < 64 {
		t.Fatalf("pass started %d jobs, want at least 64", started)
	}
	waitFor(t, "all started jobs to leave the queue", func() bool {
		return countNotQueued(heavyJobs)+countNotQueued(favoredJobs) >= started
	})
	h, f := countNotQueued(heavyJobs), countNotQueued(favoredJobs)
	if f < 3*h {
		t.Fatalf("favored (weight 4) got %d dispatches vs %d — want >= 3x", f, h)
	}
}

// TestFairShareBlockedHeadEndsPassWithoutBackfill pins the head-of-line
// contract in fair order: without backfill, the greatest-deficit lane's
// blocked head ends the pass — later lanes cannot jump it. With backfill the
// same setup dispatches the small job around the head.
func TestFairShareBlockedHeadEndsPassWithoutBackfill(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/big.mc", helloSrc)
	r.addSource(t, "bob", "/small.mc", helloSrc)

	free := r.clus.FreeNodes(nil)
	if err := r.clus.AllocateNodes("blocker", free[:61]); err != nil {
		t.Fatal(err)
	}
	r.submit(t, "alice", "/big.mc", "minic", 8) // blocked: 3 free
	small := r.submit(t, "bob", "/small.mc", "minic", 1)

	if started := r.sched.Tick(); started != 0 {
		t.Fatalf("non-backfill pass started %d jobs around a blocked head", started)
	}
	if st := small.State(); st != jobs.StateQueued {
		t.Fatalf("small job dispatched around the blocked head: %v", st)
	}
}

func TestFairShareBackfillsAroundBlockedLane(t *testing.T) {
	r := newRig(t, Options{Backfill: true})
	r.addSource(t, "alice", "/big.mc", helloSrc)
	r.addSource(t, "bob", "/small.mc", helloSrc)

	free := r.clus.FreeNodes(nil)
	if err := r.clus.AllocateNodes("blocker", free[:61]); err != nil {
		t.Fatal(err)
	}
	blockedHead := r.submit(t, "alice", "/big.mc", "minic", 8)
	small := r.submit(t, "bob", "/small.mc", "minic", 1)

	if started := r.sched.Tick(); started != 1 {
		t.Fatalf("backfill pass started %d jobs, want 1 (the small one)", started)
	}
	if snap := r.drive(t, small.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("small job: %v (%s)", snap.State, snap.Failure)
	}
	if st := blockedHead.State(); st != jobs.StateQueued {
		t.Fatalf("blocked head should still be queued, state = %v", st)
	}
}

// TestFairShareBudgetGateAtDispatch: a user whose step budget is already
// spent has their queued job failed at dispatch with the distinct
// budget-exhausted reason, not silently skipped or generically errored.
func TestFairShareBudgetGateAtDispatch(t *testing.T) {
	ft := newFakeTenant()
	ft.remaining["broke"] = 0
	r := newRig(t, Options{Tenant: ft})
	r.addSource(t, "broke", "/job.mc", helloSrc)
	j := r.submit(t, "broke", "/job.mc", "minic", 1)

	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed {
		t.Fatalf("state = %v, want failed", snap.State)
	}
	if snap.Failure != budgetExhaustedMsg {
		t.Fatalf("failure = %q, want %q", snap.Failure, budgetExhaustedMsg)
	}
}

// TestFairShareBudgetExhaustionMidRun: a job admitted with budget left but
// not enough to finish is cancelled mid-run and lands in the distinct
// budget-exhausted terminal state, and the steps it did consume are charged.
func TestFairShareBudgetExhaustionMidRun(t *testing.T) {
	ft := newFakeTenant()
	ft.remaining["cap"] = 500
	r := newRig(t, Options{Tenant: ft})
	r.addSource(t, "cap", "/spin.mc", `
func main() {
	var total = 0;
	for (var i = 0; i < 1000000; i = i + 1) { total = total + i; }
	println(total);
}`)
	j := r.submit(t, "cap", "/spin.mc", "minic", 1)

	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed {
		t.Fatalf("state = %v, want failed", snap.State)
	}
	if !strings.Contains(snap.Failure, budgetExhaustedMsg) {
		t.Fatalf("failure = %q, want it to carry %q", snap.Failure, budgetExhaustedMsg)
	}
	if got := ft.chargedOf("cap"); got <= 0 {
		t.Fatalf("charged steps = %d, want > 0 (partial consumption billed)", got)
	}
}

// TestFairShareChargesSteps: a successful run bills its actual VM step
// consumption to the owner.
func TestFairShareChargesSteps(t *testing.T) {
	ft := newFakeTenant()
	r := newRig(t, Options{Tenant: ft})
	r.addSource(t, "alice", "/job.mc", helloSrc)
	j := r.submit(t, "alice", "/job.mc", "minic", 4)

	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v (%s)", snap.State, snap.Failure)
	}
	if got := ft.chargedOf("alice"); got <= 0 {
		t.Fatalf("charged steps = %d, want > 0", got)
	}
}

// TestSingleOwnerPassKeepsSubmissionOrder: with one owner there is one lane,
// so each pass must start exactly the jobs a submission-order walk over the
// same queue starts — stopping at the first job that does not fit, or with
// backfill stepping over it. Every job holds its nodes until its stdin
// closes, and free nodes appear only when the test releases a blocker, so
// the oracle and the pass see the same free count.
func TestSingleOwnerPassKeepsSubmissionOrder(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("backfill=%v/seed=%d", backfill, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newRig(t, Options{Backfill: backfill})
				r.addSource(t, "alice", "/job.mc", blockingSrc)
				free := r.clus.FreeNodes(nil)
				// 56 of 64 nodes busy; each later round frees 8 of them.
				for b := 0; b < 7; b++ {
					if err := r.clus.AllocateNodes(fmt.Sprintf("blocker-%d", b), free[8*b:8*b+8]); err != nil {
						t.Fatal(err)
					}
				}
				var queued, all []*jobs.Job
				defer func() {
					for _, j := range all {
						j.Stdin.Close()
					}
				}()
				submit := func(n int) {
					for i := 0; i < n; i++ {
						j := r.submit(t, "alice", "/job.mc", "minic", 1+rng.Intn(16))
						queued = append(queued, j)
						all = append(all, j)
					}
				}
				// At most 32 jobs ever queue, so the per-lane probe bound
				// (TestBackfillProbeBoundPerLane) never cuts a pass short.
				submit(20)
				for round := 0; round < 5; round++ {
					if round > 0 {
						r.clus.Release(fmt.Sprintf("blocker-%d", round))
						submit(3)
					}
					// The oracle: walk the queue in submission order.
					avail := r.clus.FreeCount()
					var want []string
					for _, j := range queued {
						if j.Spec.Ranks <= avail {
							want = append(want, j.ID)
							avail -= j.Spec.Ranks
						} else if !backfill {
							break
						}
					}
					started := r.sched.Tick()
					var got []string
					var still []*jobs.Job
					for _, j := range queued {
						if len(j.Snapshot().Nodes) > 0 {
							got = append(got, j.ID)
						} else {
							still = append(still, j)
						}
					}
					if started != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("round %d: pass started %d jobs %v, submission order starts %v", round, started, got, want)
					}
					queued = still
				}
			})
		}
	}
}

// TestBackfillProbeBoundPerLane pins the documented probe depth: with
// backfill, a pass steps over at most 32 blocked jobs in one lane. A 1-node
// job queued behind 31 blocked 16-node jobs of the same owner starts;
// behind 32 it waits for a later pass.
func TestBackfillProbeBoundPerLane(t *testing.T) {
	for _, tc := range []struct{ blocked, started int }{{31, 1}, {32, 0}} {
		t.Run(fmt.Sprintf("blocked=%d", tc.blocked), func(t *testing.T) {
			r := newRig(t, Options{Backfill: true})
			r.addSource(t, "alice", "/job.mc", helloSrc)
			free := r.clus.FreeNodes(nil)
			if err := r.clus.AllocateNodes("blocker", free[:60]); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.blocked; i++ {
				r.submit(t, "alice", "/job.mc", "minic", 16) // 4 free: blocked
			}
			small := r.submit(t, "alice", "/job.mc", "minic", 1)
			if got := r.sched.Tick(); got != tc.started {
				t.Fatalf("pass started %d jobs, want %d", got, tc.started)
			}
			if ran := len(small.Snapshot().Nodes) > 0; ran != (tc.started == 1) {
				t.Fatalf("small job started = %v behind %d blocked jobs", ran, tc.blocked)
			}
		})
	}
}
