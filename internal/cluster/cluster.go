// Package cluster models the grid the portal fronts: four segments of
// sixteen slave nodes each (by default), every node with a core count,
// memory, and an optional GPU, joined by a master server. It owns the node
// inventory — which nodes are up, which are allocated to which job — and is
// the substrate the scheduler places jobs onto.
//
// The cluster is a simulation: "executing" on a node means charging the
// node's clock and occupying its allocation slot. Real computation happens
// in the minic VM (package minic) and in the Go lab workloads; the cluster
// supplies placement, failure injection, and utilization accounting.
//
// The inventory is indexed for the scheduler's hot path: a bitmap free-set
// (plus a GPU sub-index) is maintained incrementally on every Allocate,
// Release, MarkDown and MarkUp, so FreeCount is O(1) and FreeNodes is
// proportional to the number of free nodes returned rather than the size of
// the grid. Verify cross-checks the index against a full rescan.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Errors returned by allocation.
var (
	ErrNotEnoughNodes = errors.New("cluster: not enough free nodes")
	ErrUnknownNode    = errors.New("cluster: unknown node")
	ErrNodeDown       = errors.New("cluster: node is down")
	ErrNotAllocated   = errors.New("cluster: node not allocated to job")
)

// NodeState is a node's availability.
type NodeState int

// Node states.
const (
	StateUp NodeState = iota
	StateDown
)

// String names the state.
func (s NodeState) String() string {
	if s == StateUp {
		return "up"
	}
	return "down"
}

// Node describes one slave node.
type Node struct {
	ID       topology.NodeID
	Cores    int
	MemoryMB int
	GPU      bool
	State    NodeState
	// JobID is the job currently occupying the node, or "" when free.
	JobID string
	// LastHeartbeat is when the node last reported in.
	LastHeartbeat time.Time
}

// Free reports whether the node can accept an allocation.
func (n *Node) Free() bool { return n.State == StateUp && n.JobID == "" }

// Cluster is the grid inventory.
type Cluster struct {
	mu   sync.RWMutex
	grid *topology.Grid
	// nodes is indexed by flat rank — the id→node lookup is arithmetic, not
	// a map probe, and every in-order walk is a plain slice scan.
	nodes []*Node
	clk   clock.Clock

	// free indexes allocatable nodes (up and unoccupied); freeGPU is the
	// sub-index of free nodes that carry a GPU. Both are kept in lockstep
	// with node mutations by syncNodeLocked.
	free     freeSet
	freeGPU  freeSet
	gpuTotal int

	// accounting
	allocations map[string][]topology.NodeID // jobID → nodes
	busyTime    time.Duration
	start       time.Time
	lastSample  time.Time
	busyNodes   int

	releaseNotify func()
}

// SetReleaseNotify installs a hook invoked (outside the cluster lock) after
// every Release that actually freed nodes — the scheduler registers its wake
// channel here so freed capacity is re-dispatched without waiting for a poll
// interval. A nil fn disables notification.
func (c *Cluster) SetReleaseNotify(fn func()) {
	c.mu.Lock()
	c.releaseNotify = fn
	c.mu.Unlock()
}

// New builds a Cluster from configuration. Odd-numbered segments get the
// alternate core count when configured (the paper's cluster mixes dual- and
// quad-core machines), and the first GPUNodes nodes of segment 0 carry GPUs.
func New(cfg config.Config, clk clock.Clock) (*Cluster, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	grid, err := topology.New(cfg.Cluster.Segments, cfg.Cluster.NodesPerSegment, topology.Params{
		IntraNode:      cfg.Network.IntraNodeLatency.Std(),
		IntraSegment:   cfg.Network.IntraSegmentLatency.Std(),
		InterSegment:   cfg.Network.InterSegmentLatency.Std(),
		BytesPerSecond: cfg.Network.BytesPerSecond,
	})
	if err != nil {
		return nil, err
	}
	total := grid.TotalNodes()
	c := &Cluster{
		grid:        grid,
		nodes:       make([]*Node, total),
		clk:         clk,
		free:        newFreeSet(total),
		freeGPU:     newFreeSet(total),
		allocations: make(map[string][]topology.NodeID),
		start:       clk.Now(),
		lastSample:  clk.Now(),
	}
	now := clk.Now()
	for s := 0; s < cfg.Cluster.Segments; s++ {
		cores := cfg.Cluster.CoresPerNode
		if s%2 == 1 && cfg.Cluster.CoresPerNodeAlt > 0 {
			cores = cfg.Cluster.CoresPerNodeAlt
		}
		for i := 0; i < cfg.Cluster.NodesPerSegment; i++ {
			id := topology.NodeID{Segment: s, Index: i}
			n := &Node{
				ID:            id,
				Cores:         cores,
				MemoryMB:      cfg.Cluster.MemoryMBPerNode,
				GPU:           s == 0 && i < cfg.Cluster.GPUNodes,
				State:         StateUp,
				LastHeartbeat: now,
			}
			flat := grid.Flat(id)
			c.nodes[flat] = n
			c.free.set(flat)
			if n.GPU {
				c.gpuTotal++
				c.freeGPU.set(flat)
			}
		}
	}
	return c, nil
}

// nodeAt returns the node addressed by id, or nil when the id is outside the
// grid. Callers hold c.mu.
func (c *Cluster) nodeAt(id topology.NodeID) *Node {
	if !c.grid.Valid(id) {
		return nil
	}
	return c.nodes[c.grid.Flat(id)]
}

// syncNodeLocked re-derives the node's free-set membership after a mutation
// to its state or occupancy. Callers hold c.mu.
func (c *Cluster) syncNodeLocked(n *Node) {
	flat := c.grid.Flat(n.ID)
	if n.Free() {
		c.free.set(flat)
		if n.GPU {
			c.freeGPU.set(flat)
		}
	} else {
		c.free.clear(flat)
		if n.GPU {
			c.freeGPU.clear(flat)
		}
	}
}

// Grid returns the interconnect description.
func (c *Cluster) Grid() *topology.Grid { return c.grid }

// Size returns the total node count.
func (c *Cluster) Size() int { return c.grid.TotalNodes() }

// GPUNodeCount reports how many nodes in the whole cluster carry a GPU.
func (c *Cluster) GPUNodeCount() int { return c.gpuTotal }

// Node returns a snapshot of the node with the given id.
func (c *Cluster) Node(id topology.NodeID) (Node, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := c.nodeAt(id)
	if n == nil {
		return Node{}, fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	return *n, nil
}

// Nodes returns snapshots of all nodes in flat-rank order.
func (c *Cluster) Nodes() []Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Node, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = *n
	}
	return out
}

// FreeNodes appends the ids of currently allocatable nodes to dst, flat
// order, and returns the extended slice. Pass dst[:0] to reuse a buffer.
func (c *Cluster) FreeNodes(dst []topology.NodeID) []topology.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.free.appendIDs(dst, c.grid)
}

// FreeGPUNodes appends the ids of allocatable GPU-equipped nodes to dst,
// flat order, straight from the GPU sub-index, and returns the extended
// slice.
func (c *Cluster) FreeGPUNodes(dst []topology.NodeID) []topology.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.freeGPU.appendIDs(dst, c.grid)
}

// FreeCount reports how many nodes are allocatable. O(1): the free set
// carries its population count.
func (c *Cluster) FreeCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.free.count
}

// FreeGPUCount reports how many GPU-equipped nodes are allocatable.
func (c *Cluster) FreeGPUCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.freeGPU.count
}

// AllocateNodes claims exactly the given nodes for a job. It is
// all-or-nothing: if any node is unknown, down, or taken, nothing changes.
func (c *Cluster) AllocateNodes(jobID string, ids []topology.NodeID) error {
	if jobID == "" {
		return errors.New("cluster: empty job id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		n := c.nodeAt(id)
		if n == nil {
			return fmt.Errorf("%w: %v", ErrUnknownNode, id)
		}
		if n.State == StateDown {
			return fmt.Errorf("%w: %v", ErrNodeDown, id)
		}
		if n.JobID != "" {
			return fmt.Errorf("%w: %v is running %s", ErrNotEnoughNodes, id, n.JobID)
		}
	}
	c.sampleLocked()
	for _, id := range ids {
		n := c.nodeAt(id)
		n.JobID = jobID
		c.syncNodeLocked(n)
	}
	c.allocations[jobID] = append(c.allocations[jobID], ids...)
	c.busyNodes += len(ids)
	return nil
}

// AllocateNodesTraced is AllocateNodes recording the allocation as a span
// on the job trace tr (if any): node count, and the node list when it is
// small enough to be readable.
func (c *Cluster) AllocateNodesTraced(tr *trace.Trace, jobID string, ids []topology.NodeID) error {
	err := c.AllocateNodes(jobID, ids)
	if err != nil {
		return err
	}
	if tr != nil {
		sp := tr.StartSpan("allocate", trace.Attr{Key: "nodes", Value: strconv.Itoa(len(ids))})
		if len(ids) <= 8 {
			list := ""
			for i, id := range ids {
				if i > 0 {
					list += ","
				}
				list += id.String()
			}
			sp.Annotate("node_ids", list)
		}
		sp.End()
	}
	return nil
}

// ReleaseTraced is Release recording the teardown as a span on the job
// trace tr (if any). The scheduler releases a job's nodes after its terminal
// transition, so the span lands on a finished trace.
func (c *Cluster) ReleaseTraced(tr *trace.Trace, jobID string) int {
	n := c.Release(jobID)
	tr.StartSpan("release", trace.Attr{Key: "nodes", Value: strconv.Itoa(n)}).End()
	return n
}

// Release frees every node held by the job and returns how many were freed.
func (c *Cluster) Release(jobID string) int {
	c.mu.Lock()
	ids := c.allocations[jobID]
	c.sampleLocked()
	for _, id := range ids {
		if n := c.nodeAt(id); n != nil && n.JobID == jobID {
			n.JobID = ""
			c.busyNodes--
			c.syncNodeLocked(n)
		}
	}
	delete(c.allocations, jobID)
	notify := c.releaseNotify
	c.mu.Unlock()
	if notify != nil && len(ids) > 0 {
		notify()
	}
	return len(ids)
}

// Allocation returns the nodes held by a job.
func (c *Cluster) Allocation(jobID string) []topology.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]topology.NodeID, len(c.allocations[jobID]))
	copy(out, c.allocations[jobID])
	return out
}

// MarkDown takes a node out of service (failure injection). Allocated jobs
// keep their claim; the scheduler notices via NodeFailed.
func (c *Cluster) MarkDown(id topology.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodeAt(id)
	if n == nil {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	c.sampleLocked()
	n.State = StateDown
	c.syncNodeLocked(n)
	return nil
}

// MarkUp returns a node to service.
func (c *Cluster) MarkUp(id topology.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodeAt(id)
	if n == nil {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	c.sampleLocked()
	n.State = StateUp
	n.LastHeartbeat = c.clk.Now()
	c.syncNodeLocked(n)
	return nil
}

// Heartbeat records that a node reported in.
func (c *Cluster) Heartbeat(id topology.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodeAt(id)
	if n == nil {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	n.LastHeartbeat = c.clk.Now()
	return nil
}

// StaleNodes returns ids of up nodes whose last heartbeat is older than
// maxAge — candidates for marking down.
func (c *Cluster) StaleNodes(maxAge time.Duration) []topology.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cutoff := c.clk.Now().Add(-maxAge)
	var out []topology.NodeID
	for _, n := range c.nodes {
		if n.State == StateUp && n.LastHeartbeat.Before(cutoff) {
			out = append(out, n.ID)
		}
	}
	return out
}

// Verify cross-checks the incremental free-set index against a brute-force
// rescan of the inventory and returns a descriptive error on the first
// mismatch. It exists for tests and debugging: any sequence of Allocate,
// Release, MarkDown and MarkUp must leave Verify passing.
func (c *Cluster) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	wantFree, wantGPU, wantBusy, wantGPUTotal := 0, 0, 0, 0
	for flat, n := range c.nodes {
		free := n.Free()
		if free {
			wantFree++
		}
		if c.free.has(flat) != free {
			return fmt.Errorf("cluster: index says free=%v for %v, rescan says %v",
				c.free.has(flat), n.ID, free)
		}
		if n.GPU {
			wantGPUTotal++
			if free {
				wantGPU++
			}
		}
		if c.freeGPU.has(flat) != (free && n.GPU) {
			return fmt.Errorf("cluster: GPU index says %v for %v, rescan says %v",
				c.freeGPU.has(flat), n.ID, free && n.GPU)
		}
		if n.JobID != "" {
			wantBusy++
		}
	}
	if c.free.count != wantFree {
		return fmt.Errorf("cluster: free count %d, rescan %d", c.free.count, wantFree)
	}
	if c.freeGPU.count != wantGPU {
		return fmt.Errorf("cluster: free GPU count %d, rescan %d", c.freeGPU.count, wantGPU)
	}
	if c.gpuTotal != wantGPUTotal {
		return fmt.Errorf("cluster: GPU total %d, rescan %d", c.gpuTotal, wantGPUTotal)
	}
	if c.busyNodes != wantBusy {
		return fmt.Errorf("cluster: busy count %d, rescan %d", c.busyNodes, wantBusy)
	}
	return nil
}

// sampleLocked integrates busy-node time up to now using the busy count that
// was in effect since the last sample; callers hold c.mu and must adjust
// busyNodes after any mutation that changes which nodes are busy.
func (c *Cluster) sampleLocked() {
	now := c.clk.Now()
	dt := now.Sub(c.lastSample)
	if dt > 0 {
		c.busyTime += dt * time.Duration(c.busyNodes)
		c.lastSample = now
	}
}

// Utilization returns the time-averaged fraction of nodes busy since the
// cluster started, in [0,1].
func (c *Cluster) Utilization() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sampleLocked()
	elapsed := c.clk.Now().Sub(c.start)
	if elapsed <= 0 {
		return 0
	}
	return float64(c.busyTime) / (float64(elapsed) * float64(len(c.nodes)))
}
