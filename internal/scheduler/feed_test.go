package scheduler

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// The activity feed lives in the job store, which records every lifecycle
// step; these tests pin what the scheduler adds to it and the contract its
// notes and the portal's polling rely on.

func TestEventLogFailurePath(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/bad.mc", "func main() { var x = ; }")
	j := r.submit(t, "alice", "/bad.mc", "minic", 1)
	r.drive(t, j.ID)
	var failed []string
	for _, e := range r.store.Feed(0) {
		if e.JobID == j.ID && e.Kind == "failed" {
			failed = append(failed, e.Detail)
		}
	}
	if len(failed) != 1 || !strings.Contains(failed[0], "compile failed") {
		t.Fatalf("failed entries = %q", failed)
	}
}

func TestEventLogCancelled(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	if err := r.clus.AllocateNodes("blocker", r.clus.FreeNodes()); err != nil {
		t.Fatal(err)
	}
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	r.sched.Tick()
	if err := r.sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	// A failure that loses to the cancel leaves no trace in the feed.
	r.sched.failJob(j, "too late")
	var kinds []string
	for _, e := range r.store.Feed(0) {
		if e.JobID == j.ID {
			kinds = append(kinds, e.Kind+":"+e.Detail)
		}
	}
	if got := strings.Join(kinds, ","); got != "queued:,cancelled:cancelled by user" {
		t.Fatalf("feed = %s", got)
	}
}

func TestEventsSinceFilters(t *testing.T) {
	r := newRig(t, Options{})
	for i := 0; i < 5; i++ {
		r.store.Note("job-x", "released", nil, "")
	}
	if got := len(r.store.Feed(0)); got != 5 {
		t.Fatalf("Feed(0) = %d entries", got)
	}
	if got := len(r.store.Feed(3)); got != 2 {
		t.Fatalf("Feed(3) = %d entries", got)
	}
	if got := len(r.store.Feed(99)); got != 0 {
		t.Fatalf("Feed(99) = %d entries", got)
	}
}

func TestEventLogRingDropsOldest(t *testing.T) {
	r := newRig(t, Options{})
	for i := 0; i < 300; i++ {
		r.store.Note("j", "released", nil, "")
	}
	entries := r.store.Feed(0)
	if len(entries) != 256 {
		t.Fatalf("retained %d, want 256", len(entries))
	}
	if entries[0].Seq != 44 || entries[255].Seq != 299 {
		t.Fatalf("retained seqs %d..%d, want 44..299", entries[0].Seq, entries[255].Seq)
	}
}

func TestEventNodesAreCopied(t *testing.T) {
	r := newRig(t, Options{})
	nodes := []topology.NodeID{{Segment: 1, Index: 2}}
	r.store.Note("j", "allocated", nodes, "pack")
	nodes[0] = topology.NodeID{Segment: 9, Index: 9}
	if r.store.Feed(0)[0].Nodes[0].Segment == 9 {
		t.Fatal("feed entry aliases the caller's node slice")
	}
}
