package scheduler

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestUnlockOfUnlockedMutexFailsOnlyThatJob: one line of student code that
// unlocks a free mutex fails its own job with a runtime error, and the
// process goes on to run the next job.
func TestUnlockOfUnlockedMutexFailsOnlyThatJob(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/unlock.mc", `func main() { var m = mutex(); unlock(m); }`)
	r.addSource(t, "bob", "/hello.mc", helloSrc)
	bad := r.submit(t, "alice", "/unlock.mc", "minic", 1)
	snap := r.drive(t, bad.ID)
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "unlock of an unlocked mutex") {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	good := r.submit(t, "bob", "/hello.mc", "minic", 1)
	if snap := r.drive(t, good.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("next job: state = %v, failure = %q", snap.State, snap.Failure)
	}
}

// TestCyclicArrayPrintEndsOnlyThatJob: a job that prints an array holding
// itself prints [...] where the cycle closes and ends, and the process goes
// on to run the next job. Rendering the cycle used to recurse until the Go
// stack overflowed, a fatal error that took the whole process down.
func TestCyclicArrayPrintEndsOnlyThatJob(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/cycle.mc", `func main() { var a = array(1); a[0] = a; println(a); }`)
	r.addSource(t, "bob", "/hello.mc", helloSrc)
	j := r.submit(t, "alice", "/cycle.mc", "minic", 1)
	if snap := r.drive(t, j.ID); snap.State != jobs.StateSucceeded || j.Stdout.String() != "[[...]]\n" {
		t.Fatalf("state = %v, failure = %q, stdout = %q", snap.State, snap.Failure, j.Stdout.String())
	}
	good := r.submit(t, "bob", "/hello.mc", "minic", 1)
	if snap := r.drive(t, good.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("next job: state = %v, failure = %q", snap.State, snap.Failure)
	}
}

// TestDeepNestingFailsOnlyThatCompile: a source nested a million
// parentheses deep, 2 MB and under the upload limit, fails its own job
// with a compile error instead of overflowing the Go stack in the compile.
func TestDeepNestingFailsOnlyThatCompile(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/deep.mc", "func main() { println("+strings.Repeat("(", 1_000_000)+"1"+strings.Repeat(")", 1_000_000)+"); }")
	r.addSource(t, "bob", "/hello.mc", helloSrc)
	j := r.submit(t, "alice", "/deep.mc", "minic", 1)
	if snap := r.drive(t, j.ID); snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "nesting deeper") {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	good := r.submit(t, "bob", "/hello.mc", "minic", 1)
	if snap := r.drive(t, good.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("next job: state = %v, failure = %q", snap.State, snap.Failure)
	}
}

// TestDeadlockedJobFailsAndFreesNodes: a job whose threads all park on each
// other fails with the deadlock at once, not at its wall time, and gives
// its nodes back.
func TestDeadlockedJobFailsAndFreesNodes(t *testing.T) {
	r := newRig(t, Options{WallTime: time.Minute})
	r.addSource(t, "alice", "/dead.mc", `
var s = sem(0);
func w() { sem_wait(s); }
func main() { join(spawn(w)); }`)
	j := r.submit(t, "alice", "/dead.mc", "minic", 1)
	start := time.Now()
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "deadlock") {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadlocked job took %v to fail", took)
	}
	waitFor(t, "nodes to be released", func() bool { return r.clus.FreeCount() == 64 })
	if err := r.clus.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelReapsThreadParkedOnSemaphore: cancelling a job whose main spins
// while another thread is parked on a semaphore ends every goroutine the
// run started.
func TestCancelReapsThreadParkedOnSemaphore(t *testing.T) {
	r := newRig(t, Options{WallTime: time.Minute, StepBudget: 1 << 40})
	r.addSource(t, "alice", "/park.mc", `
var s = sem(0);
func w() { sem_wait(s); }
func main() {
	spawn(w);
	while (true) { }
}`)
	baseline := runtime.NumGoroutine()
	j := r.submit(t, "alice", "/park.mc", "minic", 1)
	waitFor(t, "job to start running", func() bool {
		r.sched.Tick()
		return mustState(r, j.ID) == jobs.StateRunning
	})
	if err := r.sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.store.WaitTerminal(j.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after cancel, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
