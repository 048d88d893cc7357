package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataprovider"
)

// This file is the store's persistence surface: the journal records Submit
// and Transition emit into a dataprovider, the stable serialized job form
// used by snapshots and admin backup, and the replay/restore entry points
// crash recovery drives. The in-memory sharded store stays the only read
// path — the journal is write-behind (AppendAsync), so the scheduler's
// dispatch loop never waits on storage; the portal establishes durability
// with a provider Sync barrier before acknowledging a submission.

// SubmitRecord is the WAL payload for an accepted submission.
type SubmitRecord struct {
	ID        string    `json:"id"`
	Spec      Spec      `json:"spec"`
	Submitted time.Time `json:"submitted"`
}

// TransitionRecord is the WAL payload for a lifecycle transition. State is
// the stable state name, never the numeric value.
type TransitionRecord struct {
	ID      string    `json:"id"`
	State   string    `json:"state"`
	Failure string    `json:"failure,omitempty"`
	Time    time.Time `json:"time"`
}

// PersistedJob is the stable serialized form of a job, used by snapshots,
// admin backup and restore. Node allocations and captured output are
// runtime state and are deliberately absent: after a restart the cluster is
// empty and only the job's identity, spec and lifecycle survive.
type PersistedJob struct {
	ID        string    `json:"id"`
	Spec      Spec      `json:"spec"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Failure   string    `json:"failure,omitempty"`
}

// journalBox wraps the interface so the hot paths can load it with one
// atomic pointer read instead of a lock.
type journalBox struct{ j dataprovider.Journal }

// SetJournal attaches the journal new submissions and transitions are
// recorded into; nil detaches it (the memory-provider configuration).
// Records are enqueued asynchronously — callers that need durability before
// acknowledging call Sync on the provider.
func (s *Store) SetJournal(j dataprovider.Journal) {
	if j == nil {
		s.journal.Store(nil)
		return
	}
	s.journal.Store(&journalBox{j: j})
}

func (s *Store) emit(kind dataprovider.Kind, payload interface{}) {
	box := s.journal.Load()
	if box == nil {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return // payloads are our own structs; this cannot happen
	}
	box.j.AppendAsync(dataprovider.Record{Kind: kind, Data: data})
}

// Export serializes every job, oldest first, in the stable persisted form.
func (s *Store) Export() []PersistedJob {
	s.listMu.RLock()
	defer s.listMu.RUnlock()
	out := make([]PersistedJob, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, toPersisted(j.Snapshot()))
	}
	return out
}

func toPersisted(snap Snapshot) PersistedJob {
	return PersistedJob{
		ID:        snap.ID,
		Spec:      snap.Spec,
		State:     snap.State.String(),
		Submitted: snap.Submitted,
		Started:   snap.Started,
		Finished:  snap.Finished,
		Failure:   snap.Failure,
	}
}

// Restore re-creates jobs from their persisted form, oldest first. Jobs
// whose ID already exists are skipped (idempotent replay); restored jobs
// bypass the admission cap — they were admitted before the restart. When a
// journal is attached each restored job is re-recorded, so an admin restore
// is itself durable.
func (s *Store) Restore(pjs []PersistedJob) error {
	for _, pj := range pjs {
		if err := s.restoreOne(pj, true); err != nil {
			return err
		}
	}
	return nil
}

// restoreOne injects one persisted job. journal controls whether the
// restoration is re-journaled: true for admin restore (a fresh write),
// false for WAL replay (the record already lives in the log).
func (s *Store) restoreOne(pj PersistedJob, journal bool) error {
	if _, err := s.Get(pj.ID); err == nil {
		return nil // already present: idempotent replay
	}
	st, err := ParseState(pj.State)
	if err != nil {
		return fmt.Errorf("jobs: restore %s: %w", pj.ID, err)
	}
	tr := traceForRestore(s, pj, st)
	ctx, cancel := newJobContext(tr)
	j := &Job{
		ID:        pj.ID,
		Spec:      pj.Spec,
		ctx:       ctx,
		cancel:    cancel,
		tr:        tr,
		state:     st,
		since:     pj.Submitted,
		submitted: pj.Submitted,
		started:   pj.Started,
		finished:  pj.Finished,
		failure:   pj.Failure,
		Stdout:    NewStream(s.streamLimit),
		Stdin:     NewInput(s.stdinLimit),
	}
	if pj.Spec.Stdin != "" && !st.Terminal() {
		// Best effort: a snapshot written under a larger stdin cap may not
		// fit after a config change; the job still runs, just without the
		// overflowing pre-supplied input.
		_ = j.Stdin.Feed([]byte(pj.Spec.Stdin))
	}
	// As in Submit: no step of the job can be journaled before its restore.
	j.step.Lock()
	if st.Terminal() {
		j.Stdout.Close()
		j.Stdin.Close()
		j.tr.Finish()
		cancel(fmt.Errorf("jobs: %s restored in terminal state %s", pj.ID, st))
	} else {
		s.active.Add(1)
		s.ownerRestored(pj.Spec.Owner)
	}
	s.counts[st].Add(1)
	s.bumpSequence(pj.ID)
	sh := s.shardFor(j.ID)
	sh.mu.Lock()
	sh.jobs[j.ID] = j
	sh.mu.Unlock()
	s.listMu.Lock()
	s.pos[j.ID] = len(s.order)
	s.order = append(s.order, j)
	s.listMu.Unlock()
	if journal {
		s.emit(dataprovider.KindJobRestore, pj)
	}
	j.step.Unlock()
	if st == StateQueued {
		s.queueMu.Lock()
		s.queue = append(s.queue, j)
		s.queueMu.Unlock()
	}
	return nil
}

// bumpSequence advances the ID generator past a restored "job-NNNNNN" id so
// fresh submissions never collide with recovered history.
func (s *Store) bumpSequence(id string) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return
	}
	s.gen.EnsureAtLeast(n)
}

// ApplyRecord replays one journal record into the store. Replay is
// idempotent and tolerant: a submission that already exists, a transition
// for a compacted job, or a transition the store's state is already past
// (the snapshot-overlap window) are all silently skipped — recovery must
// consume the whole valid WAL prefix, never halt mid-log.
func (s *Store) ApplyRecord(rec dataprovider.Record) error {
	switch rec.Kind {
	case dataprovider.KindJobSubmit:
		var sr SubmitRecord
		if err := json.Unmarshal(rec.Data, &sr); err != nil {
			return fmt.Errorf("jobs: replay submit: %w", err)
		}
		return s.restoreOne(PersistedJob{
			ID: sr.ID, Spec: sr.Spec, State: StateQueued.String(), Submitted: sr.Submitted,
		}, false)
	case dataprovider.KindJobTransition:
		var tr TransitionRecord
		if err := json.Unmarshal(rec.Data, &tr); err != nil {
			return fmt.Errorf("jobs: replay transition: %w", err)
		}
		st, err := ParseState(tr.State)
		if err != nil {
			return fmt.Errorf("jobs: replay transition: %w", err)
		}
		err = s.transition(tr.ID, st, tr.Failure, tr.Time, false)
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrBadTransition) {
			return nil
		}
		return err
	case dataprovider.KindJobRestore:
		var pj PersistedJob
		if err := json.Unmarshal(rec.Data, &pj); err != nil {
			return fmt.Errorf("jobs: replay restore: %w", err)
		}
		return s.restoreOne(pj, false)
	default:
		return fmt.Errorf("jobs: unknown record kind %d", rec.Kind)
	}
}

// RecoverInterrupted requeues every job stranded in compiling or running —
// their execution died with the previous process. It runs after WAL replay,
// when jobs whose completion was recorded have already left those states,
// so only genuinely interrupted work is re-dispatched. Returns how many
// jobs were requeued.
func (s *Store) RecoverInterrupted() int {
	s.listMu.RLock()
	candidates := make([]*Job, 0)
	for _, j := range s.order {
		if st := j.State(); st == StateCompiling || st == StateRunning {
			candidates = append(candidates, j)
		}
	}
	s.listMu.RUnlock()
	n := 0
	for _, j := range candidates {
		if err := s.Transition(j.ID, StateQueued, "requeued after restart"); err == nil {
			n++
		}
	}
	return n
}

// Compact drops terminal jobs beyond the newest keepTerminal of them,
// returning how many were dropped. The submission log would otherwise grow
// without bound under sustained traffic. Relative order of survivors is
// preserved, so a List cursor naming a surviving job resumes exactly where
// it left off; a cursor naming a dropped job reports ErrBadCursor, the same
// contract as any unknown cursor. keepTerminal < 0 keeps everything.
func (s *Store) Compact(keepTerminal int) int {
	if keepTerminal < 0 {
		return 0
	}
	s.listMu.Lock()
	var dropped []*Job
	kept := s.order[:0]
	seen := 0
	// Walk newest→oldest so "keep the newest N terminal jobs" is a simple
	// counter; rebuild the order slice oldest→oldest afterwards.
	keep := make([]bool, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		j := s.order[i]
		if !j.State().Terminal() {
			keep[i] = true
			continue
		}
		seen++
		if seen <= keepTerminal {
			keep[i] = true
		}
	}
	for i, j := range s.order {
		if keep[i] {
			kept = append(kept, j)
		} else {
			dropped = append(dropped, j)
			delete(s.pos, j.ID)
		}
	}
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil // release for GC
	}
	s.order = kept
	for i, j := range s.order {
		s.pos[j.ID] = i
	}
	s.listMu.Unlock()
	// Shard removal happens outside listMu so the two locks never nest; a
	// Get racing this window sees a terminal snapshot one last time, which
	// is harmless.
	for _, j := range dropped {
		sh := s.shardFor(j.ID)
		sh.mu.Lock()
		delete(sh.jobs, j.ID)
		sh.mu.Unlock()
		s.counts[j.State()].Add(-1)
	}
	return len(dropped)
}

// journalField is the store's journal holder; declared here to keep every
// persistence concern in one file.
type journalField = atomic.Pointer[journalBox]
