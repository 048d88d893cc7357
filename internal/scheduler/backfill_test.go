package scheduler

import (
	"testing"

	"repro/internal/jobs"
)

// TestBackfillDoesNotStarveQueueHead pins down the anti-starvation property
// of the backfill walk: later jobs may run around a blocked queue head, but
// the moment capacity for the head appears, the FIFO walk tries the head
// first — a finite backfill stream only finitely delays it, and younger
// queued jobs can never steal the head's allocation in the same pass.
func TestBackfillDoesNotStarveQueueHead(t *testing.T) {
	r := newRig(t, Options{Backfill: true})
	r.addSource(t, "alice", "/big.mc", blockingSrc) // the head holds its nodes until stdin closes
	r.addSource(t, "bob", "/small.mc", helloSrc)

	// Two blockers: 53 + 8 nodes held, 3 free. The head needs 8 and is
	// blocked; so is anything needing 4.
	free := r.clus.FreeNodes()
	if err := r.clus.AllocateNodes("blocker-big", free[:53]); err != nil {
		t.Fatal(err)
	}
	if err := r.clus.AllocateNodes("blocker-small", free[53:61]); err != nil {
		t.Fatal(err)
	}
	head := r.submit(t, "alice", "/big.mc", "minic", 8)

	// A stream of 1-node jobs behind the head: each fits in the 3 free
	// nodes, so backfill runs them around the blocked head.
	smalls := make([]*jobs.Job, 0, 6)
	for i := 0; i < 6; i++ {
		smalls = append(smalls, r.submit(t, "bob", "/small.mc", "minic", 1))
	}
	for _, sj := range smalls {
		snap := r.drive(t, sj.ID)
		if snap.State != jobs.StateSucceeded {
			t.Fatalf("backfilled job %s: %v (%s)", sj.ID, snap.State, snap.Failure)
		}
	}
	if st := head.State(); st != jobs.StateQueued {
		t.Fatalf("head should still be blocked, state = %v", st)
	}

	// Younger 4-node jobs queued behind the head, also currently blocked.
	lates := make([]*jobs.Job, 0, 3)
	for i := 0; i < 3; i++ {
		lates = append(lates, r.submit(t, "bob", "/small.mc", "minic", 4))
	}

	// Free 8 nodes — exactly enough for the head and more than enough for a
	// late 4-node job. One pass must give them to the head: the FIFO walk
	// reaches it first, so backfill cannot jump the now-startable head.
	r.clus.Release("blocker-small")
	if started := r.sched.Tick(); started != 1 {
		t.Fatalf("pass started %d jobs, want just the head", started)
	}
	waitFor(t, "head to leave the queue", func() bool { return head.State() != jobs.StateQueued })
	for _, lj := range lates {
		if st := lj.State(); st == jobs.StateCompiling || st == jobs.StateRunning {
			t.Fatalf("late job %s started ahead of the head", lj.ID)
		}
	}
	head.Stdin.Close()
	snap := r.drive(t, head.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("head: %v (%s)", snap.State, snap.Failure)
	}

	// With the big blocker gone everything drains — nobody is left behind.
	r.clus.Release("blocker-big")
	for _, lj := range lates {
		snap := r.drive(t, lj.ID)
		if snap.State != jobs.StateSucceeded {
			t.Fatalf("late job %s: %v (%s)", lj.ID, snap.State, snap.Failure)
		}
	}
}
