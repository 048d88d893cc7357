package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/topology"
)

// rescanFree recomputes the free list the brute-force way, from full node
// snapshots — the oracle the incremental index must always match.
func rescanFree(c *Cluster, gpuOnly bool) []topology.NodeID {
	var out []topology.NodeID
	for _, n := range c.Nodes() {
		n := n
		if n.Free() && (!gpuOnly || n.GPU) {
			out = append(out, n.ID)
		}
	}
	return out
}

func sameIDs(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFreeSetMatchesRescan drives randomized Allocate/Release/MarkDown/
// MarkUp sequences — including invalid ids, double allocations, and
// operations on already-down nodes — and checks after every step that the
// incremental free-set index is identical to a brute-force rescan: Verify()
// holds, and FreeNodes/FreeGPUNodes/FreeCount/FreeGPUCount agree with the
// oracle.
func TestFreeSetMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := config.Default()
	cfg.Cluster.GPUNodes = 5 // exercise the GPU sub-index beyond one node
	c, err := New(cfg, clock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	total := c.Size()
	live := []string{} // jobs with a current allocation
	nextJob := 0
	var free, gpu []topology.NodeID // reused every step, as the scheduler does
	randNode := func() topology.NodeID {
		if rng.Intn(10) == 0 {
			return topology.NodeID{Segment: 99, Index: 99} // unknown
		}
		flat := rng.Intn(total)
		return c.Grid().NodeAt(flat)
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // allocate a random batch (may fail: busy/down nodes)
			n := 1 + rng.Intn(6)
			ids := make([]topology.NodeID, 0, n)
			if rng.Intn(2) == 0 {
				// A batch that is actually free, when available.
				if ids = c.FreeNodes(ids); len(ids) > n {
					ids = ids[:n]
				}
			} else {
				for len(ids) < n {
					ids = append(ids, randNode())
				}
			}
			if len(ids) == 0 {
				continue
			}
			nextJob++
			id := fmt.Sprintf("job-%d", nextJob)
			if err := c.AllocateNodes(id, ids); err == nil {
				live = append(live, id)
			}
		case op < 6: // release a live job, or an unknown one
			if len(live) > 0 && rng.Intn(5) > 0 {
				i := rng.Intn(len(live))
				c.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				c.Release("job-unknown")
			}
		case op < 8:
			_ = c.MarkDown(randNode())
		default:
			_ = c.MarkUp(randNode())
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		wantFree := rescanFree(c, false)
		if free = c.FreeNodes(free[:0]); !sameIDs(free, wantFree) {
			t.Fatalf("step %d: FreeNodes = %v, rescan = %v", step, free, wantFree)
		}
		if got := c.FreeCount(); got != len(wantFree) {
			t.Fatalf("step %d: FreeCount = %d, rescan = %d", step, got, len(wantFree))
		}
		wantGPU := rescanFree(c, true)
		if gpu = c.FreeGPUNodes(gpu[:0]); !sameIDs(gpu, wantGPU) {
			t.Fatalf("step %d: FreeGPUNodes = %v, rescan = %v", step, gpu, wantGPU)
		}
		if got := c.FreeGPUCount(); got != len(wantGPU) {
			t.Fatalf("step %d: FreeGPUCount = %d, rescan = %d", step, got, len(wantGPU))
		}
	}
}

// TestFreeSetConcurrentOps hammers the index from several goroutines so the
// race detector can see any unsynchronized index update; Verify runs
// concurrently with the mutators.
func TestFreeSetConcurrentOps(t *testing.T) {
	c, err := New(config.Default(), clock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var nodes []topology.NodeID // this goroutine's buffer
			for i := 0; i < 300; i++ {
				id := fmt.Sprintf("job-%d-%d", g, i)
				nodes = c.FreeNodes(nodes[:0])
				if n := 1 + rng.Intn(3); len(nodes) > n {
					nodes = nodes[:n]
				}
				if len(nodes) > 0 {
					if err := c.AllocateNodes(id, nodes); err == nil {
						c.Release(id)
					}
				}
				flat := rng.Intn(c.Size())
				_ = c.MarkDown(c.Grid().NodeAt(flat))
				_ = c.MarkUp(c.Grid().NodeAt(flat))
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				// May observe any interleaving; must not race or report a
				// mismatch, since every mutation updates the index under
				// the same lock the verifier takes.
				if err := c.Verify(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	// All jobs released and all nodes marked back up: the index must settle
	// to "everything free".
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.FreeCount() != c.Size() {
		t.Fatalf("FreeCount = %d, want %d", c.FreeCount(), c.Size())
	}
}

func TestGPUNodeCount(t *testing.T) {
	cfg := config.Default()
	cfg.Cluster.GPUNodes = 3
	c, err := New(cfg, clock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.GPUNodeCount(); got != 3 {
		t.Fatalf("GPUNodeCount = %d, want 3", got)
	}
	if got := c.FreeGPUCount(); got != 3 {
		t.Fatalf("FreeGPUCount = %d, want 3", got)
	}
	gpu := c.FreeGPUNodes(nil)
	if len(gpu) != 3 {
		t.Fatalf("FreeGPUNodes = %v", gpu)
	}
	if err := c.AllocateNodes("j", gpu[:1]); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeGPUCount(); got != 2 {
		t.Fatalf("FreeGPUCount after allocation = %d, want 2", got)
	}
	if got := c.GPUNodeCount(); got != 3 {
		t.Fatalf("GPUNodeCount after allocation = %d, want 3", got)
	}
}
