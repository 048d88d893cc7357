package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataprovider"
)

// memJournal captures appended records in order, standing in for the durable
// provider in journaling tests.
type memJournal struct {
	mu   sync.Mutex
	recs []dataprovider.Record
}

func (m *memJournal) AppendAsync(rec dataprovider.Record) {
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
}

func (m *memJournal) records() []dataprovider.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]dataprovider.Record(nil), m.recs...)
}

func TestJournalReplayRebuildsStore(t *testing.T) {
	s, sim := newStore(t)
	j := &memJournal{}
	s.SetJournal(j)

	j1, _ := s.Submit(spec())
	j2, _ := s.Submit(spec())
	sim.Advance(1)
	s.Transition(j1.ID, StateCompiling, "")
	s.Transition(j1.ID, StateRunning, "")
	s.Transition(j1.ID, StateSucceeded, "")
	s.Transition(j2.ID, StateCompiling, "")
	s.Transition(j2.ID, StateFailed, "1:1: syntax error")

	// Replay the journal into a fresh store and compare exports.
	fresh, _ := newStore(t)
	for _, rec := range j.records() {
		if err := fresh.ApplyRecord(rec); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	want, got := s.Export(), fresh.Export()
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("job %d: replayed %+v, want %+v", i, got[i], want[i])
		}
	}
	// The sequence must have advanced past the replayed IDs.
	j3, err := fresh.Submit(spec())
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "job-000003" {
		t.Fatalf("post-replay submit id = %s, want job-000003", j3.ID)
	}
}

func TestApplyRecordToleratesStaleTransitions(t *testing.T) {
	s, _ := newStore(t)
	// A transition for a job the snapshot already compacted away must be
	// skipped, not fail recovery.
	rec := dataprovider.Record{Kind: dataprovider.KindJobTransition,
		Data: []byte(`{"id":"job-000099","state":"succeeded"}`)}
	if err := s.ApplyRecord(rec); err != nil {
		t.Fatalf("unknown-job transition: %v", err)
	}
	// A transition the restored state is already past (snapshot overlap) is
	// skipped too.
	j, _ := s.Submit(spec())
	s.Transition(j.ID, StateCompiling, "")
	s.Transition(j.ID, StateFailed, "boom")
	stale := dataprovider.Record{Kind: dataprovider.KindJobTransition,
		Data: []byte(`{"id":"` + j.ID + `","state":"compiling"}`)}
	if err := s.ApplyRecord(stale); err != nil {
		t.Fatalf("stale transition: %v", err)
	}
	if j.State() != StateFailed {
		t.Fatalf("state regressed to %v", j.State())
	}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	j1, _ := s.Submit(spec())
	s.Transition(j1.ID, StateCompiling, "")
	s.Transition(j1.ID, StateRunning, "")
	s.Submit(spec())

	fresh, _ := newStore(t)
	if err := fresh.Restore(s.Export()); err != nil {
		t.Fatal(err)
	}
	got, _ := fresh.Get(j1.ID)
	if got.State() != StateRunning {
		t.Fatalf("restored state = %v", got.State())
	}
	// Restore is idempotent: a second pass changes nothing.
	if err := fresh.Restore(s.Export()); err != nil {
		t.Fatal(err)
	}
	if n := len(fresh.Export()); n != 2 {
		t.Fatalf("after double restore, %d jobs", n)
	}
	// Restoration with a journal attached re-records each job.
	j := &memJournal{}
	another, _ := newStore(t)
	another.SetJournal(j)
	if err := another.Restore(s.Export()); err != nil {
		t.Fatal(err)
	}
	if n := len(j.records()); n != 2 {
		t.Fatalf("restore journaled %d records, want 2", n)
	}
}

func TestRecoverInterruptedRequeues(t *testing.T) {
	s, _ := newStore(t)
	j := &memJournal{}
	s.SetJournal(j)
	running, _ := s.Submit(spec())
	s.Transition(running.ID, StateCompiling, "")
	s.Transition(running.ID, StateRunning, "")
	compiling, _ := s.Submit(spec())
	s.Transition(compiling.ID, StateCompiling, "")
	done, _ := s.Submit(spec())
	s.Transition(done.ID, StateCompiling, "")
	s.Transition(done.ID, StateRunning, "")
	s.Transition(done.ID, StateSucceeded, "")

	if n := s.RecoverInterrupted(); n != 2 {
		t.Fatalf("requeued %d, want 2", n)
	}
	for _, id := range []string{running.ID, compiling.ID} {
		got, _ := s.Get(id)
		if got.State() != StateQueued {
			t.Errorf("%s state = %v, want queued", id, got.State())
		}
	}
	if got, _ := s.Get(done.ID); got.State() != StateSucceeded {
		t.Errorf("terminal job disturbed: %v", got.State())
	}
	// Requeued jobs are dispatchable again. The index may briefly hold a
	// stale duplicate from before the interruption (pruned lazily by state
	// at scan time), so count distinct IDs.
	seen := map[string]bool{}
	s.ScanQueued(func(j *Job) { seen[j.ID] = true })
	if len(seen) != 2 {
		t.Errorf("queue holds %d distinct jobs, want 2", len(seen))
	}
	if got := s.QueuedCount(); got != 2 {
		t.Errorf("QueuedCount = %d, want 2", got)
	}
}

func TestCompactKeepsNewestTerminal(t *testing.T) {
	s, _ := newStore(t)
	ids := make([]string, 6)
	for i := range ids {
		j, _ := s.Submit(spec())
		ids[i] = j.ID
	}
	// Jobs 0..3 terminal, 4..5 live.
	for _, id := range ids[:4] {
		s.Transition(id, StateCompiling, "")
		s.Transition(id, StateRunning, "")
		s.Transition(id, StateSucceeded, "")
	}
	if n := s.Compact(2); n != 2 {
		t.Fatalf("dropped %d, want 2", n)
	}
	// Oldest two terminal jobs are gone; newest two and the live ones stay.
	for _, id := range ids[:2] {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s survived compaction: %v", id, err)
		}
	}
	for _, id := range ids[2:] {
		if _, err := s.Get(id); err != nil {
			t.Errorf("%s lost: %v", id, err)
		}
	}
	if got := s.Counts()[StateSucceeded]; got != 2 {
		t.Errorf("succeeded count = %d, want 2", got)
	}
	// keepTerminal < 0 keeps everything.
	if n := s.Compact(-1); n != 0 {
		t.Errorf("Compact(-1) dropped %d", n)
	}
}

func TestCompactCursorSemantics(t *testing.T) {
	s, _ := newStore(t)
	ids := submitN(t, s, 6)
	for _, id := range ids[:4] {
		s.Transition(id, StateCompiling, "")
		s.Transition(id, StateRunning, "")
		s.Transition(id, StateSucceeded, "")
	}
	// Page up to a cursor that will survive compaction (ids[3] is among the
	// newest two terminal jobs) and one that will not (ids[1]).
	_, surviving, err := s.ListPage("", nil, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if surviving != ids[3] {
		t.Fatalf("cursor = %q, want %q", surviving, ids[3])
	}
	s.Compact(2)

	// The surviving cursor resumes exactly where it left off: the next
	// newest job after ids[3] that still exists is ids[2].
	page, _, err := s.ListPage("", nil, 10, surviving)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 1 || page[0].ID != ids[2] {
		t.Fatalf("resumed page = %+v, want just %s", page, ids[2])
	}
	// A cursor naming a compacted job is a bad cursor.
	if _, _, err := s.ListPage("", nil, 10, ids[1]); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("dropped-cursor err = %v, want ErrBadCursor", err)
	}
}

// TestRecordEncodersMatchJSON pins the submit and transition records' append
// encoders to json.Marshal, byte for byte: every Spec field, escapes, an
// omitted failure, and times in zones east and west of UTC.
func TestRecordEncodersMatchJSON(t *testing.T) {
	east := time.FixedZone("CEST", 2*3600)
	west := time.FixedZone("NST", -(3*3600 + 30*60))
	at := time.Date(2026, 10, 19, 9, 30, 1, 123456789, time.UTC)
	records := []dataprovider.Appender{
		SubmitRecord{ID: "job-000001", Spec: spec(), Submitted: at},
		SubmitRecord{ID: "job-000002", Spec: Spec{
			Owner: "bo <&>", SourcePath: "/dir \"q\"/π\u2028.mc", Language: "auto", Ranks: 16, GPU: true,
			Stdin: "line 1\nline\t2\x00\xff", StepBudget: 1 << 40,
		}, Submitted: at.In(east)},
		SubmitRecord{ID: "job-000003", Submitted: at.In(west)},
		TransitionRecord{ID: "job-000001", State: "running", Time: at},
		TransitionRecord{ID: "job-000001", State: "failed", Failure: "compile failed:\n  /a.mc:1: unexpected \"}\"", Time: at.In(east)},
		TransitionRecord{ID: "job-000001", State: "cancelled", Failure: "cancelled by user", Time: at.In(west).Truncate(time.Second)},
	}
	for _, rec := range records {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%T:\n got %s\nwant %s", rec, got, want)
		}
	}
}

type discardJournal struct{}

func (discardJournal) AppendAsync(dataprovider.Record) {}

// BenchmarkEmitRecord measures journaling one of a one-line job's job
// records (its submission and three transitions, in turn) through
// Sink.Emit, with the records' append encoders ("append") and with
// encoding/json, which Emit used for every record before ("json").
func BenchmarkEmitRecord(b *testing.B) {
	at := time.Now()
	recs := []any{
		SubmitRecord{ID: "job-000001", Spec: Spec{Owner: "alice", SourcePath: "/main.mc", Language: "minic", Ranks: 1}, Submitted: at},
		TransitionRecord{ID: "job-000001", State: "compiling", Time: at},
		TransitionRecord{ID: "job-000001", State: "running", Time: at},
		TransitionRecord{ID: "job-000001", State: "succeeded", Time: at},
	}
	var s dataprovider.Sink
	s.Attach(discardJournal{})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Emit(dataprovider.KindJobTransition, recs[i%len(recs)])
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, _ := json.Marshal(recs[i%len(recs)])
			discardJournal{}.AppendAsync(dataprovider.Record{Kind: dataprovider.KindJobTransition, Data: data})
		}
	})
}
