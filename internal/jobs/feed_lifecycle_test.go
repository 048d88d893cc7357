package jobs_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/scheduler"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

// TestEventLogRecordsLifecycle runs one job through a real scheduler and
// reads the store's activity feed: the store's lifecycle steps and the
// scheduler's placement notes interleave in pipeline order.
func TestEventLogRecordsLifecycle(t *testing.T) {
	sim := clock.NewSim()
	clus, err := cluster.New(config.Default(), sim)
	if err != nil {
		t.Fatal(err)
	}
	store := jobs.NewStore(0, sim)
	fs := vfs.New(1<<24, sim)
	if err := fs.EnsureHome("alice").WriteFile("/e.mc", []byte(`func main() { println("hi"); }`)); err != nil {
		t.Fatal(err)
	}
	sched := scheduler.New(clus, toolchain.NewService(sim), store, fs, scheduler.Options{})
	j, err := store.Submit(jobs.Spec{Owner: "alice", SourcePath: "/e.mc", Language: "minic", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start(time.Millisecond)
	snap, err := store.WaitTerminal(j.ID, 10*time.Second)
	sched.Stop() // drains the pipeline, so the release is in the feed too
	if err != nil || snap.State != jobs.StateSucceeded {
		t.Fatalf("snap = %+v, %v", snap, err)
	}

	var kinds []string
	for _, e := range store.Feed(0) {
		if e.JobID != j.ID {
			continue
		}
		kinds = append(kinds, e.Kind)
		if e.Kind == "allocated" && (len(e.Nodes) != 2 || e.Detail != "pack") {
			t.Fatalf("allocation entry = %+v", e)
		}
	}
	want := "queued,allocated,compiling,running,succeeded,released"
	if got := strings.Join(kinds, ","); got != want {
		t.Fatalf("feed kinds = %s, want %s", got, want)
	}
}
