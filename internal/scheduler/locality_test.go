package scheduler

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/toolchain"
	"repro/internal/topology"
	"repro/internal/vfs"
)

// TestPackPolicyPrefersLaterSegmentThatFits: when the first segment's free
// run is too small, pack must jump to the first segment that can hold the
// whole job instead of spanning the boundary.
func TestPackPolicyPrefersLaterSegmentThatFits(t *testing.T) {
	// Segment 0 has only 2 free nodes, segment 1 all 4.
	free := []topology.NodeID{
		{Segment: 0, Index: 0}, {Segment: 0, Index: 1},
		{Segment: 1, Index: 0}, {Segment: 1, Index: 1}, {Segment: 1, Index: 2}, {Segment: 1, Index: 3},
		{Segment: 2, Index: 0},
	}
	got := PackPolicy{}.Select(free, 4)
	if len(got) != 4 {
		t.Fatalf("selected %v", got)
	}
	for _, id := range got {
		if id.Segment != 1 {
			t.Fatalf("pack spanned segments: %v", got)
		}
	}
	// A job too big for any single segment still runs: fall back to flat
	// order.
	got = PackPolicy{}.Select(free, 5)
	if len(got) != 5 {
		t.Fatalf("fallback refused a feasible job: %v", got)
	}
	if got[0] != free[0] || got[4] != free[4] {
		t.Fatalf("fallback is not flat-order prefix: %v", got)
	}
}

// TestGangPlacementNeverSpansSegments runs a real 4-rank job on a half-empty
// 4×8 grid and asserts the allocation stays inside one segment.
func TestGangPlacementNeverSpansSegments(t *testing.T) {
	sim := clock.NewSim()
	cfg := config.Default()
	cfg.Cluster.Segments = 4
	cfg.Cluster.NodesPerSegment = 8
	c, err := cluster.New(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	tools := toolchain.NewService(sim)
	store := jobs.NewStore(0, sim)
	fs := vfs.New(1<<24, sim)
	s := New(c, tools, store, fs, Options{WallTime: 30 * time.Second})
	t.Cleanup(s.Stop)
	r := &rig{sched: s, store: store, clus: c, fs: fs}

	// Occupy the first half of every segment, leaving 4 free nodes each.
	var busy []topology.NodeID
	for seg := 0; seg < 4; seg++ {
		for i := 0; i < 4; i++ {
			busy = append(busy, topology.NodeID{Segment: seg, Index: i})
		}
	}
	if err := c.AllocateNodes("blocker", busy); err != nil {
		t.Fatal(err)
	}

	r.addSource(t, "alice", "/mpi.mc", `func main() { println(reduce_sum(rank())); }`)
	for round := 0; round < 3; round++ {
		j := r.submit(t, "alice", "/mpi.mc", "minic", 4)
		snap := r.drive(t, j.ID)
		if snap.State != jobs.StateSucceeded {
			t.Fatalf("state = %v failure=%q", snap.State, snap.Failure)
		}
		if len(snap.Nodes) != 4 {
			t.Fatalf("allocated %v", snap.Nodes)
		}
		seg := snap.Nodes[0].Segment
		for _, id := range snap.Nodes {
			if id.Segment != seg {
				t.Fatalf("gang spans segments: %v", snap.Nodes)
			}
		}
	}
}
