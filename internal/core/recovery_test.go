package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/trace"
)

// durableSystem builds an un-started System over a durable provider rooted
// at dir. Callers drive Recover/Start themselves — that sequencing is what
// these tests are about.
func durableSystem(t *testing.T, dir string) *System {
	t.Helper()
	cfg := config.Default()
	cfg.Persistence.Mode = "durable"
	cfg.Persistence.Dir = dir
	cfg.Persistence.Fsync = "always"
	sys, err := NewSystem(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustSubmit(t *testing.T, sys *System, owner string) *jobs.Job {
	t.Helper()
	j, err := sys.Jobs.Submit(jobs.Spec{
		Owner: owner, SourcePath: "/prog.mc", Language: "minic", Ranks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestKillAndRecover is the headline durability test: build a system, do a
// mixed workload, Sync (the portal's acknowledgment barrier), then simulate
// a hard kill — no shutdown, no snapshot, and a torn half-written frame
// appended to the WAL. A second system over the same directory must recover
// every acknowledged write, requeue the interrupted job, and actually run
// the queued work to completion.
func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	a := durableSystem(t, dir)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := a.Bootstrap("prof", "teachme", auth.RoleAdmin); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Auth.Register("alice", "secret1", auth.RoleStudent); err != nil {
		t.Fatal(err)
	}
	home := a.FS.EnsureHome("alice")
	if err := home.WriteFile("/prog.mc", []byte(`func main() { println("recovered"); }`)); err != nil {
		t.Fatal(err)
	}
	if err := home.MkdirAll("/results/run1"); err != nil {
		t.Fatal(err)
	}

	finished := mustSubmit(t, a, "alice")
	a.Jobs.Transition(finished.ID, jobs.StateCompiling, "")
	a.Jobs.Transition(finished.ID, jobs.StateRunning, "")
	a.Jobs.Transition(finished.ID, jobs.StateSucceeded, "")
	interrupted := mustSubmit(t, a, "alice")
	a.Jobs.Transition(interrupted.ID, jobs.StateCompiling, "")
	a.Jobs.Transition(interrupted.ID, jobs.StateRunning, "")
	waiting := mustSubmit(t, a, "alice")

	// The durability barrier: everything above is now acknowledged.
	if err := a.Provider.Sync(); err != nil {
		t.Fatal(err)
	}
	// Hard kill: no Stop, no Close, no snapshot. The process died mid-write,
	// leaving half a frame at the end of the log.
	wal, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{42, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	b := durableSystem(t, dir)
	stats, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records == 0 {
		t.Fatal("no WAL records replayed")
	}
	if stats.Requeued != 1 {
		t.Errorf("requeued %d jobs, want 1 (the interrupted one)", stats.Requeued)
	}

	// Zero lost acknowledged writes: accounts, files, job history.
	if _, err := b.Auth.Login("alice", "secret1"); err != nil {
		t.Errorf("alice cannot log in after recovery: %v", err)
	}
	if u, err := b.Auth.User("prof"); err != nil || u.Role != auth.RoleAdmin {
		t.Errorf("prof = %+v, %v", u, err)
	}
	rhome, err := b.FS.Home("alice")
	if err != nil {
		t.Fatal(err)
	}
	data, err := rhome.ReadFile("/prog.mc")
	if err != nil || string(data) != `func main() { println("recovered"); }` {
		t.Errorf("recovered file = %q, %v", data, err)
	}
	if _, err := rhome.Stat("/results/run1"); err != nil {
		t.Errorf("recovered dir missing: %v", err)
	}
	if got, _ := b.Jobs.Get(finished.ID); got.State() != jobs.StateSucceeded {
		t.Errorf("finished job state = %v, want succeeded", got.State())
	}
	for _, id := range []string{interrupted.ID, waiting.ID} {
		if got, _ := b.Jobs.Get(id); got.State() != jobs.StateQueued {
			t.Errorf("%s state = %v, want queued", id, got.State())
		}
	}

	// The queue is live, not just restored: both jobs run to completion once
	// the scheduler starts.
	b.Start()
	t.Cleanup(b.Stop)
	for _, id := range []string{interrupted.ID, waiting.ID} {
		snap, err := b.Jobs.WaitTerminal(id, 10*time.Second)
		if err != nil || snap.State != jobs.StateSucceeded {
			t.Fatalf("%s after restart = %+v, %v", id, snap, err)
		}
	}

	// The recovered job's state spans, replayed and live, follow one
	// another without overlapping.
	job, _ := b.Jobs.Get(interrupted.ID)
	var states []string
	var prev trace.SpanJSON
	for _, sp := range job.Trace().Snapshot().Children {
		if _, err := jobs.ParseState(sp.Name); err != nil {
			continue
		}
		if len(states) > 0 && (prev.End.IsZero() || sp.Start.Before(prev.End)) {
			t.Fatalf("%s span [%v, %v] overlaps %s span [%v, %v]", sp.Name, sp.Start, sp.End, prev.Name, prev.Start, prev.End)
		}
		states = append(states, sp.Name)
		prev = sp
	}
	if got := strings.Join(states, ","); got != "queued,compiling,running,queued,compiling,running" {
		t.Errorf("recovered job's state spans = %s", got)
	}
}

// TestSnapshotThenCrashRecovery covers the snapshot-overlap window: a
// snapshot folds in part of the history, more writes land after it, and the
// crash leaves both on disk. Replay over the snapshot must tolerate records
// it has already absorbed.
func TestSnapshotThenCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	a := durableSystem(t, dir)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	a.Auth.Register("alice", "secret1", auth.RoleStudent)
	home := a.FS.EnsureHome("alice")
	home.WriteFile("/prog.mc", []byte("func main() { }"))
	early := mustSubmit(t, a, "alice")
	a.Jobs.Transition(early.ID, jobs.StateCompiling, "")
	a.Jobs.Transition(early.ID, jobs.StateRunning, "")
	a.Jobs.Transition(early.ID, jobs.StateSucceeded, "")

	if _, err := a.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	// Post-snapshot writes live only in the WAL suffix.
	a.Auth.Register("bobby", "secret2", auth.RoleFaculty)
	home.WriteFile("/after.txt", []byte("post-snapshot"))
	late := mustSubmit(t, a, "alice")
	if err := a.Provider.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no second snapshot.

	b := durableSystem(t, dir)
	stats, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotBytes == 0 {
		t.Fatal("snapshot not restored")
	}
	for user, pass := range map[string]string{"alice": "secret1", "bobby": "secret2"} {
		if _, err := b.Auth.Login(user, pass); err != nil {
			t.Errorf("%s cannot log in: %v", user, err)
		}
	}
	rhome, err := b.FS.Home("alice")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := rhome.ReadFile("/after.txt"); err != nil || string(data) != "post-snapshot" {
		t.Errorf("post-snapshot file = %q, %v", data, err)
	}
	if got, _ := b.Jobs.Get(early.ID); got.State() != jobs.StateSucceeded {
		t.Errorf("pre-snapshot job = %v, want succeeded", got.State())
	}
	if got, _ := b.Jobs.Get(late.ID); got.State() != jobs.StateQueued {
		t.Errorf("post-snapshot job = %v, want queued", got.State())
	}
	// Fresh submissions continue the recovered ID sequence.
	next := mustSubmit(t, b, "alice")
	if next.ID == early.ID || next.ID == late.ID {
		t.Fatalf("recovered sequence reissued id %s", next.ID)
	}
}

// TestRecoverOnMemoryProviderIsNoop pins the memory-mode contract: Recover
// finds nothing, arms the no-op journal, and the system behaves exactly as
// before the persistence layer existed.
func TestRecoverOnMemoryProviderIsNoop(t *testing.T) {
	sys, err := NewSystem(config.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.SnapshotBytes != 0 || stats.Requeued != 0 {
		t.Fatalf("memory recovery stats = %+v, want zeros", stats)
	}
	if st := sys.Provider.Status(); st.Mode != "memory" {
		t.Fatalf("provider mode = %q", st.Mode)
	}
}
