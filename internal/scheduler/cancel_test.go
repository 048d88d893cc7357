package scheduler

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
)

// spinPairSrc keeps rank 0 busy forever while rank 1 blocks in recv —
// cancellation must halt the spinning VM and unblock the waiting MPI peer.
const spinPairSrc = `
func main() {
	if (rank() == 0) {
		while (true) { }
	}
	var got = recv(0);
	println(got);
}`

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelWhileCompiling(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	// Walk the job to compiling by hand to freeze it mid-pipeline.
	if err := r.store.Transition(j.ID, jobs.StateCompiling, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	snap, err := r.store.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := snap.State(); st != jobs.StateCancelled {
		t.Fatalf("state = %v", st)
	}
	if ctxErr := j.Context().Err(); ctxErr == nil {
		t.Fatal("job context still alive after cancel")
	}
	if cause := context.Cause(j.Context()); !errors.Is(cause, jobs.ErrCancelled) {
		t.Fatalf("context cause = %v", cause)
	}
}

func TestCancelWhileRunningHaltsVM(t *testing.T) {
	r := newRig(t, Options{WallTime: time.Minute, StepBudget: 1 << 40})
	reg := metrics.NewRegistry()
	r.store.SetMetrics(reg)
	runs := reg.Histogram("job_run_seconds", nil)
	r.addSource(t, "alice", "/spin.mc", spinPairSrc)
	j := r.submit(t, "alice", "/spin.mc", "minic", 2)
	waitFor(t, "job to start running", func() bool {
		r.sched.Tick()
		return mustState(r, j.ID) == jobs.StateRunning
	})
	if err := r.sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	snap, err := r.store.WaitTerminal(j.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateCancelled || !strings.Contains(snap.Failure, "cancelled by user") {
		t.Fatalf("snap = %+v", snap)
	}
	// The pipeline must unwind: VM ranks halt, the blocked peer unblocks,
	// and the nodes come back.
	waitFor(t, "nodes to be released", func() bool { return r.clus.FreeCount() == 64 })
	if got := r.sched.CancelledWhileRunning(); got != 1 {
		t.Fatalf("CancelledWhileRunning = %d", got)
	}
	if cause := context.Cause(j.Context()); !errors.Is(cause, jobs.ErrCancelled) {
		t.Fatalf("context cause = %v", cause)
	}
	// A cancelled run is not a run time: the histogram gains no sample.
	if n := runs.Count(); n != 0 {
		t.Fatalf("job_run_seconds count = %d after a cancelled run", n)
	}
}

func TestStopWithinDrainsCleanly(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	if snap := r.drive(t, j.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("snap = %+v", snap)
	}
	if !r.sched.StopWithin(5 * time.Second) {
		t.Fatal("drain with nothing in flight reported unclean")
	}
}

func TestStopCancelsStragglers(t *testing.T) {
	r := newRig(t, Options{WallTime: time.Minute, StepBudget: 1 << 40})
	r.addSource(t, "alice", "/spin.mc", `func main() { while (true) { } }`)
	j := r.submit(t, "alice", "/spin.mc", "minic", 1)
	waitFor(t, "job to start running", func() bool {
		r.sched.Tick()
		return mustState(r, j.ID) == jobs.StateRunning
	})
	if r.sched.StopWithin(50 * time.Millisecond) {
		t.Fatal("drain reported clean with a spinning job in flight")
	}
	snap, err := r.store.WaitTerminal(j.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateCancelled || !strings.Contains(snap.Failure, "shutting down") {
		t.Fatalf("snap = %+v", snap)
	}
	waitFor(t, "nodes to be released", func() bool { return r.clus.FreeCount() == 64 })
}

func TestEventDrivenDispatchOnSubmit(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	// An hour-long ticker cannot help within the test's lifetime; only the
	// submit wake can dispatch the job.
	r.sched.Start(time.Hour)
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	snap, err := r.store.WaitTerminal(j.ID, 10*time.Second)
	if err != nil || snap.State != jobs.StateSucceeded {
		t.Fatalf("snap = %+v, %v", snap, err)
	}
}

func TestEventDrivenDispatchOnRelease(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	if err := r.clus.AllocateNodes("blocker", r.clus.FreeNodes(nil)); err != nil {
		t.Fatal(err)
	}
	r.sched.Start(time.Hour)
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	time.Sleep(20 * time.Millisecond)
	if st := mustState(r, j.ID); st != jobs.StateQueued {
		t.Fatalf("state = %v, want queued while cluster full", st)
	}
	// Freeing the blocker must wake the loop; no tick will come for an hour.
	r.clus.Release("blocker")
	snap, err := r.store.WaitTerminal(j.ID, 10*time.Second)
	if err != nil || snap.State != jobs.StateSucceeded {
		t.Fatalf("snap = %+v, %v", snap, err)
	}
}

// TestConcurrentCancelAndDispatch races cancellation against the dispatch
// path; under -race it exercises the claim-then-verify ordering in tryStart.
func TestConcurrentCancelAndDispatch(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	ids := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		ids = append(ids, r.submit(t, "alice", "/h.mc", "minic", 1).ID)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			r.sched.Cancel(id) // losing the race to a finished job is fine
		}
	}()
	for i := 0; i < 50; i++ {
		r.sched.Tick()
	}
	wg.Wait()
	for _, id := range ids {
		if _, err := r.store.WaitTerminal(id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "nodes to be released", func() bool { return r.clus.FreeCount() == 64 })
}

func TestDispatchLatencyRecorded(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	if snap := r.drive(t, j.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("snap = %+v", snap)
	}
	// The rig's store runs on a simulated clock while the scheduler clock
	// defaults to the wall clock, so the absolute value is meaningless here —
	// but dispatch must have recorded something non-negative and summed it.
	if r.sched.DispatchLatencySumUS() < r.sched.DispatchLatencyLastUS() {
		t.Fatalf("latency sum %d < last %d",
			r.sched.DispatchLatencySumUS(), r.sched.DispatchLatencyLastUS())
	}
}
