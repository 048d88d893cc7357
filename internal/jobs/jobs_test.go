package jobs

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/topology"
)

func spec() Spec {
	return Spec{Owner: "alice", SourcePath: "/main.mc", Language: "minic", Ranks: 4}
}

func newStore(t *testing.T) (*Store, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim()
	return NewStore(0, sim), sim
}

func TestSubmitAssignsSequentialIDs(t *testing.T) {
	s, _ := newStore(t)
	j1, err := s.Submit(spec())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := s.Submit(spec())
	if j1.ID != "job-000001" || j2.ID != "job-000002" {
		t.Fatalf("ids = %s, %s", j1.ID, j2.ID)
	}
	if j1.State() != StateQueued {
		t.Fatalf("initial state = %v", j1.State())
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := newStore(t)
	bad := []Spec{
		{SourcePath: "/m.mc", Language: "minic", Ranks: 1},
		{Owner: "a", Language: "minic", Ranks: 1},
		{Owner: "a", SourcePath: "/m.mc", Ranks: 1},
		{Owner: "a", SourcePath: "/m.mc", Language: "minic", Ranks: 0},
	}
	for i, sp := range bad {
		if _, err := s.Submit(sp); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestQueueLimit(t *testing.T) {
	sim := clock.NewSim()
	s := NewStore(2, sim)
	s.Submit(spec())
	s.Submit(spec())
	if _, err := s.Submit(spec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v", err)
	}
	// Finishing a job frees a slot.
	if err := s.Transition("job-000001", StateCompiling, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Transition("job-000001", StateFailed, "compile error"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec()); err != nil {
		t.Fatalf("submit after completion err = %v", err)
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	s, sim := newStore(t)
	j, _ := s.Submit(spec())
	steps := []State{StateCompiling, StateRunning, StateSucceeded}
	for _, st := range steps {
		sim.Advance(time.Second)
		if err := s.Transition(j.ID, st, ""); err != nil {
			t.Fatalf("to %v: %v", st, err)
		}
	}
	snap := j.Snapshot()
	if snap.State != StateSucceeded {
		t.Fatalf("state = %v", snap.State)
	}
	if !snap.Started.After(snap.Submitted) || !snap.Finished.After(snap.Started) {
		t.Fatalf("timestamps out of order: %+v", snap)
	}
}

func TestInvalidTransitions(t *testing.T) {
	s, _ := newStore(t)
	j, _ := s.Submit(spec())
	if err := s.Transition(j.ID, StateSucceeded, ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("queued→succeeded err = %v", err)
	}
	s.Transition(j.ID, StateCancelled, "")
	if err := s.Transition(j.ID, StateCompiling, ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("cancelled→compiling err = %v", err)
	}
	if err := s.Transition("job-999999", StateCompiling, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job err = %v", err)
	}
}

func TestFailureReasonRecorded(t *testing.T) {
	s, _ := newStore(t)
	j, _ := s.Submit(spec())
	s.Transition(j.ID, StateCompiling, "")
	s.Transition(j.ID, StateFailed, "2:3: undefined variable")
	snap := j.Snapshot()
	if snap.Failure != "2:3: undefined variable" {
		t.Fatalf("failure = %q", snap.Failure)
	}
	// Default message when none supplied.
	j2, _ := s.Submit(spec())
	s.Transition(j2.ID, StateCompiling, "")
	s.Transition(j2.ID, StateFailed, "")
	if j2.Snapshot().Failure != "unknown failure" {
		t.Fatalf("default failure = %q", j2.Snapshot().Failure)
	}
}

func TestTerminalClosesStreams(t *testing.T) {
	s, _ := newStore(t)
	j, _ := s.Submit(spec())
	s.Transition(j.ID, StateCompiling, "")
	s.Transition(j.ID, StateRunning, "")
	j.Stdout.Write([]byte("output"))
	s.Transition(j.ID, StateSucceeded, "")
	if _, _, _, done := j.Stdout.ReadFrom(0, 0); !done {
		t.Fatal("stdout not closed at terminal state")
	}
	buf := make([]byte, 4)
	if _, err := j.Stdin.Read(buf); err != io.EOF {
		t.Fatalf("stdin read err = %v, want EOF", err)
	}
}

func TestListNewestFirstAndOwnerFilter(t *testing.T) {
	s, _ := newStore(t)
	s.Submit(spec())
	bobSpec := spec()
	bobSpec.Owner = "bob"
	s.Submit(bobSpec)
	s.Submit(spec())
	all, _, err := s.ListPage("", nil, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].ID != "job-000003" || all[2].ID != "job-000001" {
		t.Fatalf("ListPage order: %v", jobIDs(all))
	}
	alice, _, err := s.ListPage("alice", nil, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(alice) != 2 || alice[0].ID != "job-000003" || alice[1].ID != "job-000001" {
		t.Fatalf("alice jobs = %v", jobIDs(alice))
	}
}

func TestActiveAndCounts(t *testing.T) {
	s, _ := newStore(t)
	j1, _ := s.Submit(spec())
	s.Submit(spec())
	s.Transition(j1.ID, StateCompiling, "")
	s.Transition(j1.ID, StateRunning, "")
	s.Transition(j1.ID, StateSucceeded, "")
	if got := s.ActiveByOwner("alice"); got != 1 {
		t.Fatalf("ActiveByOwner = %d, want 1", got)
	}
	counts := s.Counts()
	if counts[StateSucceeded] != 1 || counts[StateQueued] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestSetNodesAndArtifact(t *testing.T) {
	s, _ := newStore(t)
	j, _ := s.Submit(spec())
	j.SetArtifact("art-abc")
	nodes := []topology.NodeID{{Segment: 0, Index: 1}, {Segment: 1, Index: 2}}
	j.SetNodes(nodes)
	snap := j.Snapshot()
	if snap.ArtifactID != "art-abc" || len(snap.Nodes) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Snapshot must not alias the internal slice.
	snap.Nodes[0] = topology.NodeID{Segment: 9, Index: 9}
	if j.Snapshot().Nodes[0].Segment == 9 {
		t.Fatal("Snapshot aliases internal node slice")
	}
}

func TestPreSuppliedStdin(t *testing.T) {
	s, _ := newStore(t)
	sp := spec()
	sp.Stdin = "42\n"
	j, _ := s.Submit(sp)
	buf := make([]byte, 8)
	n, err := j.Stdin.Read(buf)
	if err != nil || string(buf[:n]) != "42\n" {
		t.Fatalf("stdin read = %q, %v", buf[:n], err)
	}
}

func TestWaitTerminal(t *testing.T) {
	s, _ := newStore(t)
	j, _ := s.Submit(spec())
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Transition(j.ID, StateCompiling, "")
		s.Transition(j.ID, StateRunning, "")
		s.Transition(j.ID, StateSucceeded, "")
	}()
	snap, err := s.WaitTerminal(j.ID, 5*time.Second)
	if err != nil || snap.State != StateSucceeded {
		t.Fatalf("WaitTerminal = %+v, %v", snap.State, err)
	}
	j2, _ := s.Submit(spec())
	if _, err := s.WaitTerminal(j2.ID, 10*time.Millisecond); err == nil {
		t.Fatal("WaitTerminal on stuck job did not time out")
	}
	if _, err := s.WaitTerminal("job-xyz", time.Millisecond); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id err = %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	names := map[State]string{
		StateQueued: "queued", StateCompiling: "compiling", StateRunning: "running",
		StateSucceeded: "succeeded", StateFailed: "failed", StateCancelled: "cancelled",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %q", int(st), st.String())
		}
	}
	if !StateFailed.Terminal() || StateRunning.Terminal() {
		t.Fatal("Terminal classification wrong")
	}
}

func jobIDs(snaps []Snapshot) []string {
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = s.ID
	}
	return out
}

// --- Stream tests ------------------------------------------------------------

func TestStreamReadAt(t *testing.T) {
	s := NewStream(0)
	s.Write([]byte("hello "))
	data, next, dropped, done := s.ReadFrom(0, 0)
	if string(data) != "hello " || next != 6 || dropped != 0 || done {
		t.Fatalf("ReadFrom(0) = %q, %d, %d, %v", data, next, dropped, done)
	}
	s.Write([]byte("world"))
	data, next, _, _ = s.ReadFrom(next, 0)
	if string(data) != "world" || next != 11 {
		t.Fatalf("incremental read = %q, %d", data, next)
	}
	// A bounded read stops at max and resumes where it stopped.
	data, next, _, _ = s.ReadFrom(0, 4)
	if string(data) != "hell" || next != 4 {
		t.Fatalf("ReadFrom(0, 4) = %q, %d", data, next)
	}
	// Reading past the end returns empty, clamped to the end.
	data, next, _, _ = s.ReadFrom(999, 0)
	if len(data) != 0 || next != 11 {
		t.Fatalf("read past end = %q, %d", data, next)
	}
	s.Close()
	if _, _, _, done = s.ReadFrom(next, 0); !done {
		t.Fatal("done not reported after Close")
	}
}

func TestStreamLimitDropsOldest(t *testing.T) {
	s := NewStream(10)
	s.Write([]byte("0123456789"))
	s.Write([]byte("ABCDE"))
	if s.String() != "56789ABCDE" {
		t.Fatalf("retained = %q", s.String())
	}
	// A reader at offset 0 resumes from the oldest retained byte and is
	// told how many bytes it missed.
	data, next, dropped, _ := s.ReadFrom(0, 0)
	if string(data) != "56789ABCDE" || next != 15 || dropped != 5 {
		t.Fatalf("ReadFrom(0) after drop = %q, %d, %d", data, next, dropped)
	}
	if s.Len() != 15 {
		t.Fatalf("Len = %d, want 15", s.Len())
	}
}

func TestStreamWriteAfterCloseDiscarded(t *testing.T) {
	s := NewStream(0)
	s.Close()
	s.Write([]byte("late"))
	if s.Len() != 0 {
		t.Fatal("write after close retained")
	}
}

func TestStreamConcurrentWriters(t *testing.T) {
	s := NewStream(1 << 20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Write([]byte("0123456789"))
			}
		}()
	}
	wg.Wait()
	if s.Len() != 8*100*10 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestInputFeedAndEOF(t *testing.T) {
	in := NewInput(0)
	go func() {
		in.Feed([]byte("line1\n"))
		in.Close()
		in.Feed([]byte("ignored"))
	}()
	all, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(all) != "line1\n" {
		t.Fatalf("read %q", all)
	}
}
