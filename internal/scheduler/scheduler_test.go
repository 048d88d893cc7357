package scheduler

import (
	"strings"
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

// rig bundles a full backend for scheduler tests.
type rig struct {
	sched *Scheduler
	store *jobs.Store
	clus  *cluster.Cluster
	fs    *vfs.FS
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	sim := clock.NewSim()
	cfg := config.Default()
	c, err := cluster.New(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	tools := toolchain.NewService(sim)
	store := jobs.NewStore(0, sim)
	fs := vfs.New(1<<24, sim)
	if opts.WallTime == 0 {
		opts.WallTime = 30 * time.Second
	}
	s := New(c, tools, store, fs, opts)
	t.Cleanup(s.Stop)
	return &rig{sched: s, store: store, clus: c, fs: fs}
}

func (r *rig) addSource(t *testing.T, user, path, src string) {
	t.Helper()
	h := r.fs.EnsureHome(user)
	if err := h.WriteFile(path, []byte(src)); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) submit(t *testing.T, user, path, lang string, ranks int) *jobs.Job {
	t.Helper()
	j, err := r.store.Submit(jobs.Spec{Owner: user, SourcePath: path, Language: lang, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// drive ticks until the job terminates.
func (r *rig) drive(t *testing.T, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		r.sched.Tick()
		j, err := r.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap := j.Snapshot(); snap.State.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v", id, mustState(r, id))
		}
		time.Sleep(time.Millisecond)
	}
}

func mustState(r *rig, id string) jobs.State {
	j, _ := r.store.Get(id)
	return j.State()
}

const helloSrc = `func main() { println("hello from the cluster"); }`

// blockingSrc holds its nodes until the job's stdin closes, so a test can
// count one pass's starts without a job finishing mid-pass and freeing its
// nodes for the same pass.
const blockingSrc = `func main() { var line = readline(); }`

func TestSequentialJobLifecycle(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/hello.mc", helloSrc)
	j := r.submit(t, "alice", "/hello.mc", "minic", 1)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	if got := j.Stdout.String(); got != "hello from the cluster\n" {
		t.Fatalf("stdout = %q", got)
	}
	if len(snap.Nodes) != 1 {
		t.Fatalf("nodes = %v", snap.Nodes)
	}
	if r.clus.FreeCount() != 64 {
		t.Fatalf("nodes not released: free = %d", r.clus.FreeCount())
	}
	if r.sched.Dispatched() != 1 {
		t.Fatalf("Dispatched = %d", r.sched.Dispatched())
	}
}

func TestParallelMPIJob(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/sum.mc", `
func main() {
	var total = reduce_sum(rank() + 1);
	if (rank() == 0) {
		println("total:", total);
	}
}`)
	j := r.submit(t, "alice", "/sum.mc", "minic", 8)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	// ranks 1..8 sum to 36; output is prefixed with the rank.
	if got := j.Stdout.String(); !strings.Contains(got, "[rank 0] total: 36") {
		t.Fatalf("stdout = %q", got)
	}
	if len(snap.Nodes) != 8 {
		t.Fatalf("allocated %d nodes", len(snap.Nodes))
	}
}

func TestCompileErrorFailsJobWithDiagnostics(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/bad.mc", "func main() {\n  var x = ;\n}")
	j := r.submit(t, "alice", "/bad.mc", "minic", 1)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed {
		t.Fatalf("state = %v", snap.State)
	}
	if !strings.Contains(snap.Failure, "compile failed") || !strings.Contains(snap.Failure, "2:") {
		t.Fatalf("failure = %q", snap.Failure)
	}
	if !strings.Contains(j.Stdout.String(), "/bad.mc:2:") {
		t.Fatalf("stdout = %q", j.Stdout.String())
	}
}

func TestRuntimeErrorFailsJob(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/crash.mc", `func main() { println(1/0); }`)
	j := r.submit(t, "alice", "/crash.mc", "minic", 1)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "division by zero") {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
}

func TestMissingSourceFailsJob(t *testing.T) {
	r := newRig(t, Options{})
	r.fs.EnsureHome("alice")
	j := r.submit(t, "alice", "/ghost.mc", "minic", 1)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "ghost.mc") {
		t.Fatalf("snap = %+v", snap)
	}
}

func TestMissingHomeFailsJob(t *testing.T) {
	r := newRig(t, Options{})
	j := r.submit(t, "nobody", "/x.mc", "minic", 1)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "no home") {
		t.Fatalf("snap = %+v", snap)
	}
}

func TestAutoLanguageDetection(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/prog.c", "#include <stdio.h>\nfunc main() { println(\"c\"); }")
	j := r.submit(t, "alice", "/prog.c", "auto", 1)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v, failure = %q", snap.State, snap.Failure)
	}
	r.addSource(t, "alice", "/mystery.dat", "junk")
	j2 := r.submit(t, "alice", "/mystery.dat", "auto", 1)
	snap2 := r.drive(t, j2.ID)
	if snap2.State != jobs.StateFailed || !strings.Contains(snap2.Failure, "detect") {
		t.Fatalf("snap = %+v", snap2)
	}
}

func TestOversizedJobFailsImmediately(t *testing.T) {
	r := newRig(t, Options{MaxNodesPerJob: 4})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	j := r.submit(t, "alice", "/h.mc", "minic", 8)
	r.sched.Tick()
	snap, err := r.store.WaitTerminal(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "limit") {
		t.Fatalf("snap = %+v", snap)
	}
}

func TestFIFOHeadOfLineBlocksWithoutBackfill(t *testing.T) {
	r := newRig(t, Options{MaxNodesPerJob: 64})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	// Occupy 60 of 64 nodes so a 16-node job cannot start.
	if err := r.clus.AllocateNodes("blocker", r.clus.FreeNodes(nil)[:60]); err != nil {
		t.Fatal(err)
	}
	big := r.submit(t, "alice", "/h.mc", "minic", 16)
	small := r.submit(t, "alice", "/h.mc", "minic", 1)
	started := r.sched.Tick()
	if started != 0 {
		t.Fatalf("started %d jobs, want 0 (FIFO head blocks)", started)
	}
	if mustState(r, small.ID) != jobs.StateQueued {
		t.Fatal("small job jumped the queue without backfill")
	}
	// Free the blocker: the big job can now start, then the small one.
	r.clus.Release("blocker")
	snapBig := r.drive(t, big.ID)
	snapSmall := r.drive(t, small.ID)
	if snapBig.State != jobs.StateSucceeded || snapSmall.State != jobs.StateSucceeded {
		t.Fatalf("big=%v small=%v", snapBig.State, snapSmall.State)
	}
}

func TestBackfillLetsSmallJobsThrough(t *testing.T) {
	r := newRig(t, Options{MaxNodesPerJob: 64, Backfill: true})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	if err := r.clus.AllocateNodes("blocker", r.clus.FreeNodes(nil)[:60]); err != nil {
		t.Fatal(err)
	}
	big := r.submit(t, "alice", "/h.mc", "minic", 16)
	small := r.submit(t, "alice", "/h.mc", "minic", 1)
	snapSmall := r.drive(t, small.ID)
	if snapSmall.State != jobs.StateSucceeded {
		t.Fatalf("backfilled job state = %v", snapSmall.State)
	}
	if mustState(r, big.ID) != jobs.StateQueued {
		t.Fatal("big job should still be waiting")
	}
	r.clus.Release("blocker")
	if snap := r.drive(t, big.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("big job final state = %v", snap.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	// Block the cluster so the job stays queued.
	if err := r.clus.AllocateNodes("blocker", r.clus.FreeNodes(nil)); err != nil {
		t.Fatal(err)
	}
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	r.sched.Tick()
	if err := r.sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if mustState(r, j.ID) != jobs.StateCancelled {
		t.Fatalf("state = %v", mustState(r, j.ID))
	}
	// Cancelling again (or a running job) errors.
	if err := r.sched.Cancel(j.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if err := r.sched.Cancel("job-404"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestWallTimeTimeout(t *testing.T) {
	r := newRig(t, Options{WallTime: 50 * time.Millisecond, StepBudget: 1 << 40})
	// Spin forever; the wall clock, not the step budget, must end it.
	r.addSource(t, "alice", "/spin.mc", `func main() { while (true) { } }`)
	j := r.submit(t, "alice", "/spin.mc", "minic", 1)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "wall time") {
		t.Fatalf("snap = %+v", snap)
	}
}

func TestInteractiveStdin(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/echo.mc", `
func main() {
	var line = readline();
	println("echo: " + line);
}`)
	j, err := r.store.Submit(jobs.Spec{
		Owner: "alice", SourcePath: "/echo.mc", Language: "minic", Ranks: 1,
		Stdin: "interactive input\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v failure=%q", snap.State, snap.Failure)
	}
	if got := j.Stdout.String(); got != "echo: interactive input\n" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestBackgroundLoop(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	r.sched.Start(time.Millisecond)
	j := r.submit(t, "alice", "/h.mc", "minic", 1)
	snap, err := r.store.WaitTerminal(j.ID, 10*time.Second)
	if err != nil || snap.State != jobs.StateSucceeded {
		t.Fatalf("snap = %+v, %v", snap, err)
	}
	r.sched.Stop()
	r.sched.Stop() // idempotent
}

func TestPointToPointAcrossRanks(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/ring.mc", `
func main() {
	var next = (rank() + 1) % size();
	var prev = (rank() + size() - 1) % size();
	send(next, rank());
	var got = recv(prev);
	assert(got == prev, "ring value wrong");
	if (rank() == 0) { println("ring ok"); }
}`)
	j := r.submit(t, "alice", "/ring.mc", "minic", 4)
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v failure=%q stdout=%q", snap.State, snap.Failure, j.Stdout.String())
	}
}

// --- policy tests -------------------------------------------------------------

func freeList(t *testing.T) []topology.NodeID {
	t.Helper()
	g, err := topology.New(4, 4, topology.Params{
		IntraNode: 1, IntraSegment: 2, InterSegment: 3, BytesPerSecond: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	free := make([]topology.NodeID, g.TotalNodes())
	for i := range free {
		free[i] = g.NodeAt(i)
	}
	return free
}

func TestPackPolicyPacksOneSegment(t *testing.T) {
	free := freeList(t)
	got := PackPolicy{}.Select(free, 4)
	for _, id := range got {
		if id.Segment != 0 {
			t.Fatalf("pack spilled to segment %d: %v", id.Segment, got)
		}
	}
	if (PackPolicy{}).Select(free[:2], 3) != nil {
		t.Fatal("pack satisfied an unsatisfiable request")
	}
	if (PackPolicy{}).Select(free, 0) != nil {
		t.Fatal("pack satisfied n=0")
	}
}

func TestSpreadPolicyUsesAllSegments(t *testing.T) {
	free := freeList(t)
	got := SpreadPolicy{}.Select(free, 4)
	segs := map[int]bool{}
	for _, id := range got {
		segs[id.Segment] = true
	}
	if len(segs) != 4 {
		t.Fatalf("spread used %d segments: %v", len(segs), got)
	}
	if (SpreadPolicy{}).Select(free[:3], 5) != nil {
		t.Fatal("spread satisfied an unsatisfiable request")
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{"": "pack", "pack": "pack", "spread": "spread"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != want {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("simulated-annealing"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDownNodesAreNotScheduled(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/h.mc", helloSrc)
	// Take every node in segments 1-3 down and allocate the rest but two.
	for _, id := range r.clus.FreeNodes(nil) {
		if id.Segment > 0 {
			if err := r.clus.MarkDown(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.clus.AllocateNodes("blocker", r.clus.FreeNodes(nil)[:14]); err != nil {
		t.Fatal(err)
	}
	// A 4-node job cannot start on 2 free nodes.
	j := r.submit(t, "alice", "/h.mc", "minic", 4)
	r.sched.Tick()
	if mustState(r, j.ID) != jobs.StateQueued {
		t.Fatalf("job state = %v, want queued", mustState(r, j.ID))
	}
	// Repair two nodes: now it fits, and it must run only on up nodes.
	if err := r.clus.MarkUp(topology.NodeID{Segment: 1, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.clus.MarkUp(topology.NodeID{Segment: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v failure=%q", snap.State, snap.Failure)
	}
	for _, id := range snap.Nodes {
		n, err := r.clus.Node(id)
		if err != nil || n.State != cluster.StateUp {
			t.Fatalf("job placed on node %v in state %v", id, n.State)
		}
	}
}

func TestGPUJobsLandOnGPUNodes(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/g.mc", helloSrc)
	j, err := r.store.Submit(jobs.Spec{
		Owner: "alice", SourcePath: "/g.mc", Language: "minic", Ranks: 1, GPU: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.drive(t, j.ID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v failure=%q", snap.State, snap.Failure)
	}
	if len(snap.Nodes) != 1 {
		t.Fatalf("nodes = %v", snap.Nodes)
	}
	n, err := r.clus.Node(snap.Nodes[0])
	if err != nil || !n.GPU {
		t.Fatalf("job placed on non-GPU node %v", snap.Nodes[0])
	}
}

func TestGPUJobExceedingGPUCapacityFails(t *testing.T) {
	// The default cluster has exactly one GPU machine; asking for two GPU
	// nodes is permanently unsatisfiable and must fail fast.
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/g.mc", helloSrc)
	j, err := r.store.Submit(jobs.Spec{
		Owner: "alice", SourcePath: "/g.mc", Language: "minic", Ranks: 2, GPU: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sched.Tick()
	snap, err := r.store.WaitTerminal(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateFailed || !strings.Contains(snap.Failure, "GPU") {
		t.Fatalf("snap = %+v", snap)
	}
}

func TestGPUJobWaitsWhileGPUBusy(t *testing.T) {
	r := newRig(t, Options{})
	r.addSource(t, "alice", "/g.mc", helloSrc)
	// Occupy the single GPU node.
	gpuNodes := r.clus.FreeGPUNodes(nil)
	if len(gpuNodes) != 1 {
		t.Fatalf("gpu nodes = %v", gpuNodes)
	}
	if err := r.clus.AllocateNodes("hog", gpuNodes); err != nil {
		t.Fatal(err)
	}
	j, err := r.store.Submit(jobs.Spec{
		Owner: "alice", SourcePath: "/g.mc", Language: "minic", Ranks: 1, GPU: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sched.Tick()
	if mustState(r, j.ID) != jobs.StateQueued {
		t.Fatalf("state = %v, want queued while GPU busy", mustState(r, j.ID))
	}
	r.clus.Release("hog")
	if snap := r.drive(t, j.ID); snap.State != jobs.StateSucceeded {
		t.Fatalf("state = %v", snap.State)
	}
}
