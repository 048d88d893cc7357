package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/topology"
)

func newTestCluster(t *testing.T) (*Cluster, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim()
	c, err := New(config.Default(), sim)
	if err != nil {
		t.Fatal(err)
	}
	return c, sim
}

func TestNewBuildsPaperShape(t *testing.T) {
	c, _ := newTestCluster(t)
	if c.Size() != 64 {
		t.Fatalf("Size = %d, want 64", c.Size())
	}
	nodes := c.Nodes()
	if len(nodes) != 64 {
		t.Fatalf("Nodes() returned %d", len(nodes))
	}
	// Flat ordering: first node is s0n00, last s3n15.
	if nodes[0].ID != (topology.NodeID{Segment: 0, Index: 0}) {
		t.Fatalf("first node = %v", nodes[0].ID)
	}
	if nodes[63].ID != (topology.NodeID{Segment: 3, Index: 15}) {
		t.Fatalf("last node = %v", nodes[63].ID)
	}
	// Dual/quad core mix: even segments 2 cores, odd segments 4.
	if nodes[0].Cores != 2 {
		t.Errorf("segment 0 cores = %d, want 2", nodes[0].Cores)
	}
	if nodes[16].Cores != 4 {
		t.Errorf("segment 1 cores = %d, want 4", nodes[16].Cores)
	}
	// One GPU machine, in segment 0.
	gpus := 0
	for _, n := range nodes {
		if n.GPU {
			gpus++
			if n.ID.Segment != 0 {
				t.Errorf("GPU in segment %d", n.ID.Segment)
			}
		}
	}
	if gpus != 1 {
		t.Errorf("gpus = %d, want 1", gpus)
	}
}

func TestNodeLookup(t *testing.T) {
	c, _ := newTestCluster(t)
	n, err := c.Node(topology.NodeID{Segment: 2, Index: 5})
	if err != nil || n.ID.Segment != 2 || n.ID.Index != 5 {
		t.Fatalf("Node = %+v, %v", n, err)
	}
	if _, err := c.Node(topology.NodeID{Segment: 9, Index: 0}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node err = %v", err)
	}
}

func TestAllocateRelease(t *testing.T) {
	c, _ := newTestCluster(t)
	ids := c.FreeNodes(nil)[:4]
	if err := c.AllocateNodes("job-1", ids); err != nil {
		t.Fatal(err)
	}
	if c.FreeCount() != 60 {
		t.Fatalf("FreeCount = %d, want 60", c.FreeCount())
	}
	got := c.Allocation("job-1")
	if len(got) != 4 {
		t.Fatalf("Allocation = %v", got)
	}
	// Double allocation of the same node fails atomically.
	err := c.AllocateNodes("job-2", []topology.NodeID{ids[0], {Segment: 3, Index: 15}})
	if !errors.Is(err, ErrNotEnoughNodes) {
		t.Fatalf("conflicting allocation err = %v", err)
	}
	// All-or-nothing: the free node in that request must remain free.
	n, _ := c.Node(topology.NodeID{Segment: 3, Index: 15})
	if !n.Free() {
		t.Fatal("failed allocation leaked a claim")
	}
	if freed := c.Release("job-1"); freed != 4 {
		t.Fatalf("Release freed %d, want 4", freed)
	}
	if c.FreeCount() != 64 {
		t.Fatalf("FreeCount after release = %d", c.FreeCount())
	}
	if freed := c.Release("job-unknown"); freed != 0 {
		t.Fatalf("releasing unknown job freed %d", freed)
	}
}

func TestAllocateValidation(t *testing.T) {
	c, _ := newTestCluster(t)
	if err := c.AllocateNodes("", c.FreeNodes(nil)[:1]); err == nil {
		t.Fatal("empty job id accepted")
	}
	if err := c.AllocateNodes("j", []topology.NodeID{{Segment: 8, Index: 8}}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node err = %v", err)
	}
}

func TestMarkDownBlocksAllocation(t *testing.T) {
	c, _ := newTestCluster(t)
	id := topology.NodeID{Segment: 0, Index: 0}
	if err := c.MarkDown(id); err != nil {
		t.Fatal(err)
	}
	if err := c.AllocateNodes("j", []topology.NodeID{id}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("allocating a down node err = %v", err)
	}
	if c.FreeCount() != 63 {
		t.Fatalf("FreeCount with one down node = %d", c.FreeCount())
	}
	if err := c.MarkUp(id); err != nil {
		t.Fatal(err)
	}
	if err := c.AllocateNodes("j", []topology.NodeID{id}); err != nil {
		t.Fatalf("allocation after MarkUp failed: %v", err)
	}
	if err := c.MarkDown(topology.NodeID{Segment: 7, Index: 7}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("MarkDown unknown err = %v", err)
	}
	if err := c.MarkUp(topology.NodeID{Segment: 7, Index: 7}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("MarkUp unknown err = %v", err)
	}
}

func TestHeartbeatsAndStaleness(t *testing.T) {
	c, sim := newTestCluster(t)
	id := topology.NodeID{Segment: 1, Index: 3}
	sim.Advance(10 * time.Minute)
	// Everyone is stale except nodes that heartbeat.
	if err := c.Heartbeat(id); err != nil {
		t.Fatal(err)
	}
	stale := c.StaleNodes(5 * time.Minute)
	if len(stale) != 63 {
		t.Fatalf("stale count = %d, want 63", len(stale))
	}
	for _, s := range stale {
		if s == id {
			t.Fatal("heartbeating node reported stale")
		}
	}
	if err := c.Heartbeat(topology.NodeID{Segment: 9, Index: 9}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat unknown err = %v", err)
	}
	// Down nodes are not reported stale (already out of service).
	c.MarkDown(topology.NodeID{Segment: 0, Index: 0})
	stale = c.StaleNodes(5 * time.Minute)
	for _, s := range stale {
		if (s == topology.NodeID{Segment: 0, Index: 0}) {
			t.Fatal("down node reported stale")
		}
	}
}

func TestUtilization(t *testing.T) {
	c, sim := newTestCluster(t)
	// 32 of 64 nodes busy for 10 minutes → utilization 0.5.
	if err := c.AllocateNodes("half", c.FreeNodes(nil)[:32]); err != nil {
		t.Fatal(err)
	}
	sim.Advance(10 * time.Minute)
	u := c.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %f, want ~0.5", u)
	}
	c.Release("half")
	sim.Advance(10 * time.Minute)
	u = c.Utilization()
	if u < 0.24 || u > 0.26 {
		t.Fatalf("Utilization after idle period = %f, want ~0.25", u)
	}
}

func TestUtilizationZeroAtStart(t *testing.T) {
	c, _ := newTestCluster(t)
	if u := c.Utilization(); u != 0 {
		t.Fatalf("initial utilization = %f", u)
	}
}

func TestFreeNodesSortedFlat(t *testing.T) {
	c, _ := newTestCluster(t)
	free := c.FreeNodes(nil)
	g := c.Grid()
	for i := 1; i < len(free); i++ {
		if g.Flat(free[i-1]) >= g.Flat(free[i]) {
			t.Fatal("FreeNodes not in flat order")
		}
	}
}
