package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/dataprovider"
)

func TestJobContextLivesUntilTerminal(t *testing.T) {
	s, _ := newStore(t)
	j, err := s.Submit(spec())
	if err != nil {
		t.Fatal(err)
	}
	if j.Context() == nil || j.Context().Err() != nil {
		t.Fatal("fresh job must carry a live context")
	}
	s.Transition(j.ID, StateCompiling, "")
	s.Transition(j.ID, StateRunning, "")
	if j.Context().Err() != nil {
		t.Fatal("context died before a terminal state")
	}
	if err := s.Transition(j.ID, StateSucceeded, ""); err != nil {
		t.Fatal(err)
	}
	if j.Context().Err() == nil {
		t.Fatal("context still alive after terminal transition")
	}
	if cause := context.Cause(j.Context()); !errors.Is(cause, context.Canceled) {
		t.Fatalf("succeeded job cause = %v", cause)
	}
}

func TestCancelledJobContextCarriesReason(t *testing.T) {
	s, _ := newStore(t)
	j, err := s.Submit(spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transition(j.ID, StateCancelled, "cancelled by user"); err != nil {
		t.Fatal(err)
	}
	cause := context.Cause(j.Context())
	if !errors.Is(cause, ErrCancelled) || !strings.Contains(cause.Error(), "cancelled by user") {
		t.Fatalf("cause = %v", cause)
	}
	if snap := j.Snapshot(); snap.Failure != "cancelled by user" {
		t.Fatalf("failure = %q", snap.Failure)
	}
}

func TestSubmitNotifies(t *testing.T) {
	s, _ := newStore(t)
	fired := 0
	s.SetNotify(func() {
		fired++
		s.Counts() // must not deadlock: notify runs outside the store lock
	})
	if _, err := s.Submit(spec()); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("notify fired %d times", fired)
	}
	// A rejected submit must not notify.
	if _, err := s.Submit(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if fired != 1 {
		t.Fatalf("notify fired %d times after rejected submit", fired)
	}
}

// TestFinishedJobsShareOneContext pins the swap at the terminal transition:
// two jobs that ended without a cancel hold the same already-cancelled
// context (one Done channel between them), a restored finished job takes it
// directly, and a cancelled job keeps its own, whose cause names the reason.
func TestFinishedJobsShareOneContext(t *testing.T) {
	s, _ := newStore(t)
	a, _ := s.Submit(spec())
	b, _ := s.Submit(spec())
	c, _ := s.Submit(spec())
	// Each job's own Done channel is made here, as a watcher makes it.
	running := a.Context().Done()
	b.Context().Done()
	for _, id := range []string{a.ID, b.ID} {
		s.Transition(id, StateCompiling, "")
		s.Transition(id, StateRunning, "")
	}
	if err := s.Transition(a.ID, StateSucceeded, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Transition(b.ID, StateFailed, "boom"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-running:
	default:
		t.Fatal("the context a running job handed out was not cancelled at its end")
	}
	if a.Context() != b.Context() || a.Context().Done() != b.Context().Done() {
		t.Fatal("two finished jobs hold different contexts")
	}
	if cause := context.Cause(b.Context()); !errors.Is(cause, context.Canceled) {
		t.Fatalf("failed job cause = %v", cause)
	}
	if err := s.Transition(c.ID, StateCancelled, "cancelled by user"); err != nil {
		t.Fatal(err)
	}
	if c.Context() == a.Context() {
		t.Fatal("a cancelled job gave up its own context")
	}
	if cause := context.Cause(c.Context()); !errors.Is(cause, ErrCancelled) || !strings.Contains(cause.Error(), "cancelled by user") {
		t.Fatalf("cancelled job cause = %v", cause)
	}

	r, _ := newStore(t)
	if err := r.Restore([]PersistedJob{{ID: "job-000042", Spec: spec(), State: "succeeded"}}); err != nil {
		t.Fatal(err)
	}
	restored, _ := r.Get("job-000042")
	if restored.Context() != a.Context() {
		t.Fatal("a restored finished job does not share the finished context")
	}
}

// TestContextSwapRace reads a job's context while its terminal transition
// swaps it; run under -race.
func TestContextSwapRace(t *testing.T) {
	s, _ := newStore(t)
	for i := 0; i < 50; i++ {
		j, _ := s.Submit(spec())
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-j.Context().Done()
			if j.Context().Err() == nil {
				t.Error("context live after the terminal transition")
			}
		}()
		if err := s.Transition(j.ID, StateFailed, "boom"); err != nil {
			t.Fatal(err)
		}
		<-done
	}
}

// holdingJournal blocks the append of a terminal transition record until
// released, the way a full commit queue behind a snapshot capture does.
type holdingJournal struct {
	entered chan struct{}
	release chan struct{}
}

func (h *holdingJournal) AppendAsync(rec dataprovider.Record) {
	if rec.Kind == dataprovider.KindJobTransition && strings.Contains(string(rec.Data), `"state":"succeeded"`) {
		close(h.entered)
		<-h.release
	}
}

// TestTerminalStateNeverShowsAnOpenTrace holds the terminal record in the
// journal append and reads the job meanwhile: once its state is terminal,
// its trace's root is closed and names that state.
func TestTerminalStateNeverShowsAnOpenTrace(t *testing.T) {
	s, _ := newStore(t)
	h := &holdingJournal{entered: make(chan struct{}), release: make(chan struct{})}
	s.SetJournal(h)
	j, err := s.Submit(spec())
	if err != nil {
		t.Fatal(err)
	}
	s.Transition(j.ID, StateCompiling, "")
	s.Transition(j.ID, StateRunning, "")
	done := make(chan error, 1)
	go func() { done <- s.Transition(j.ID, StateSucceeded, "") }()
	<-h.entered
	if st := j.State(); st != StateSucceeded {
		t.Fatalf("state = %s while its record is being journaled", st)
	}
	root := j.Trace().Snapshot()
	if root.DurationUS == -1 || root.Attrs["state"] != "succeeded" {
		t.Errorf("state succeeded visible while trace root open (duration %d, attrs %v)", root.DurationUS, root.Attrs)
	}
	close(h.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
