package scheduler

import (
	"fmt"
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
// user floods ten thousand jobs, then a light user submits one. Under FIFO
// the light job would wait behind the entire flood; under fair-share it must
// dispatch in the very first pass, because the light user's lane has the
// same deficit as the heavy lane and each lane ages per job served.
func TestFairShareLightUserNotStarved(t *testing.T) {
	r := newRig(t, Options{FairShare: true})
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
	r := newRig(t, Options{FairShare: true})
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
	r := newRig(t, Options{FairShare: true, Tenant: ft})
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

// TestFairShareBlockedHeadEndsPassWithoutBackfill preserves the FIFO pass's
// head-of-line contract under fair order: without backfill, the greatest-
// deficit lane's blocked head ends the pass — later lanes cannot jump it.
// With backfill the same setup dispatches the small job around the head.
func TestFairShareBlockedHeadEndsPassWithoutBackfill(t *testing.T) {
	r := newRig(t, Options{FairShare: true})
	r.addSource(t, "alice", "/big.mc", helloSrc)
	r.addSource(t, "bob", "/small.mc", helloSrc)

	free := r.clus.FreeNodes()
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
	r := newRig(t, Options{FairShare: true, Backfill: true})
	r.addSource(t, "alice", "/big.mc", helloSrc)
	r.addSource(t, "bob", "/small.mc", helloSrc)

	free := r.clus.FreeNodes()
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
	r := newRig(t, Options{FairShare: true, Tenant: ft})
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
	r := newRig(t, Options{FairShare: true, Tenant: ft})
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
	r := newRig(t, Options{FairShare: true, Tenant: ft})
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
