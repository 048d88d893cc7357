package scheduler

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestRankErrorEndsTheRun: one rank's runtime error fails the job at once,
// naming that error, while its peer waits in recv for a message that will
// never come; the peer does not hold the job's nodes until the wall time.
func TestRankErrorEndsTheRun(t *testing.T) {
	r := newRig(t, Options{WallTime: 5 * time.Second})
	r.addSource(t, "alice", "/fail.mc", `
func main() {
	if (rank() == 0) {
		println(1 / 0);
	} else {
		println(recv(0));
	}
}`)
	j := r.submit(t, "alice", "/fail.mc", "minic", 2)
	start := time.Now()
	snap := r.drive(t, j.ID)
	took := time.Since(start)
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "division by zero") {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	if !strings.HasPrefix(snap.Failure, "rank 0: ") {
		t.Errorf("failure = %q, want rank 0's error", snap.Failure)
	}
	if took > time.Second {
		t.Errorf("the job took %v to fail, want under 1s", took)
	}
	waitFor(t, "nodes to be released", func() bool { return r.clus.FreeCount() == 64 })
	if err := r.clus.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestThreadsOfARankReceiveAtOnce: a thread gives up the run token while it
// waits in recv, so two threads of rank 1 wait there at the same time. Each
// value must arrive intact, strings included.
func TestThreadsOfARankReceiveAtOnce(t *testing.T) {
	const n = 40
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/recv.mc", fmt.Sprintf(`
var n = %d;
func take() {
	for (var i = 0; i < n; i = i + 1) { println(recv(0)); }
}
func main() {
	if (rank() == 0) {
		for (var i = 0; i < n; i = i + 1) {
			send(1, "message number " + itoa(i));
			send(1, i);
		}
	} else {
		var t = spawn(take);
		take();
		join(t);
	}
}`, n))
	j := r.submit(t, "alice", "/recv.mc", "minic", 2)
	if snap := r.drive(t, j.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("[rank 1] message number %d", i), fmt.Sprintf("[rank 1] %d", i))
	}
	got := strings.Split(strings.TrimSuffix(j.Stdout.String(), "\n"), "\n")
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rank 1 received\n%s\nwant, in any order,\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
