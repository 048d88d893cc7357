package jobs

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dataprovider"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestFeedRecordsStoreOnlySteps walks a job through the store alone —
// submit, compile, requeue, cancel — and expects one feed entry per
// journaled step, with the reasons as detail.
func TestFeedRecordsStoreOnlySteps(t *testing.T) {
	s, _ := newStore(t)
	jr := &memJournal{}
	s.SetJournal(jr)
	j, _ := s.Submit(spec())
	s.Transition(j.ID, StateCompiling, "")
	s.Transition(j.ID, StateQueued, "requeued after restart")
	s.Transition(j.ID, StateCancelled, "cancelled by user")

	var got []string
	for _, e := range s.Feed(0) {
		got = append(got, e.Kind+":"+e.Detail)
	}
	want := "queued:,compiling:,queued:requeued after restart,cancelled:cancelled by user"
	if strings.Join(got, ",") != want {
		t.Fatalf("feed = %v, want %s", got, want)
	}
	if n := len(jr.records()); n != 4 {
		t.Fatalf("journal holds %d records, want 4", n)
	}
}

// TestLifecycleSinksAgree is the one-source property: workers drive random
// submit, transition, requeue and cancel steps against one store's jobs,
// racing each other on the same jobs, and for every job the activity
// feed's kinds, the journaled states and the trace's state spans spell the
// same sequence. The job histograms count exactly the measured stints the
// journal shows. Each round fits the feed's retention, so no job's history
// is cut.
func TestLifecycleSinksAgree(t *testing.T) {
	const rounds, workers, steps = 20, 4, feedCap / 4
	for round := 0; round < rounds; round++ {
		sim := clock.NewSim()
		s := NewStore(0, sim)
		jr := &memJournal{}
		s.SetJournal(jr)
		reg := metrics.NewRegistry()
		s.SetMetrics(reg)

		p := &jobPool{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				randomSteps(t, s, sim, p, rng, steps)
			}(rand.New(rand.NewSource(int64(round*workers + w))))
		}
		wg.Wait()

		journaled, perStint := journalSequences(t, jr.records())
		fed := map[string][]string{}
		for _, e := range s.Feed(0) {
			fed[e.JobID] = append(fed[e.JobID], e.Kind)
		}
		if len(journaled) == 0 || len(fed) != len(journaled) {
			t.Fatalf("round %d: feed covers %d jobs, journal %d", round, len(fed), len(journaled))
		}
		for id, want := range journaled {
			job, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			traced := stateSpans(t, job.Trace().Snapshot())
			if f, tr := strings.Join(fed[id], ","), strings.Join(traced, ","); f != want || tr != want {
				t.Fatalf("round %d, %s:\n journal %s\n feed    %s\n trace   %s", round, id, want, f, tr)
			}
		}
		for st, name := range map[State]string{
			StateQueued: "job_queue_wait_seconds", StateCompiling: "job_compile_seconds", StateRunning: "job_run_seconds",
		} {
			if got := reg.Histogram(name, nil).Count(); got != perStint[st] {
				t.Fatalf("round %d: %s counted %d stints, journal shows %d", round, name, got, perStint[st])
			}
		}
	}
}

// jobPool is the job IDs the workers share.
type jobPool struct {
	mu  sync.Mutex
	ids []string
}

func (p *jobPool) add(id string) {
	p.mu.Lock()
	p.ids = append(p.ids, id)
	p.mu.Unlock()
}

// pick returns a random pooled ID, or "" while the pool is empty.
func (p *jobPool) pick(rng *rand.Rand) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return ""
	}
	return p.ids[rng.Intn(len(p.ids))]
}

// randomSteps submits jobs into the shared pool and moves pooled jobs at
// random, so workers race on the same jobs.
func randomSteps(t *testing.T, s *Store, sim *clock.Sim, p *jobPool, rng *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		sim.Advance(time.Duration(rng.Intn(3)) * time.Millisecond)
		id := p.pick(rng)
		if id == "" || rng.Intn(5) == 0 {
			j, err := s.Submit(spec())
			if err != nil {
				t.Error(err)
				return
			}
			p.add(j.ID)
			continue
		}
		j, _ := s.Get(id)
		next := j.State() + 1 // the forward step
		switch rng.Intn(6) {
		case 0:
			next = StateQueued // requeue
		case 1:
			next = StateCancelled
		case 2:
			next = StateFailed
		}
		s.Transition(id, next, "") // invalid steps are rejected and leave no trace
	}
}

// journalSequences returns each job's journaled states in order, and how
// many stints in each state the job histograms should have measured.
func journalSequences(t *testing.T, recs []dataprovider.Record) (map[string]string, map[State]uint64) {
	seqs := map[string]string{}
	cur := map[string]State{}
	stints := map[State]uint64{}
	for _, rec := range recs {
		switch rec.Kind {
		case dataprovider.KindJobSubmit:
			var sr SubmitRecord
			if err := json.Unmarshal(rec.Data, &sr); err != nil {
				t.Fatal(err)
			}
			seqs[sr.ID], cur[sr.ID] = StateQueued.String(), StateQueued
		case dataprovider.KindJobTransition:
			var tr TransitionRecord
			if err := json.Unmarshal(rec.Data, &tr); err != nil {
				t.Fatal(err)
			}
			next, err := ParseState(tr.State)
			if err != nil {
				t.Fatal(err)
			}
			if measured(cur[tr.ID], next) {
				stints[cur[tr.ID]]++
			}
			seqs[tr.ID] += "," + tr.State
			cur[tr.ID] = next
		}
	}
	return seqs, stints
}

// stateSpans lists a job trace's lifecycle states in order: the root's
// children named after a state, then the terminal state the finished root
// records. Consecutive state spans must not overlap.
func stateSpans(t *testing.T, root trace.SpanJSON) []string {
	var out []string
	var prev trace.SpanJSON
	for _, ch := range root.Children {
		if _, err := ParseState(ch.Name); err != nil {
			continue
		}
		if len(out) > 0 && (prev.End.IsZero() || ch.Start.Before(prev.End)) {
			t.Fatalf("%s span [%v, %v] overlaps %s span [%v, %v]", ch.Name, ch.Start, ch.End, prev.Name, prev.Start, prev.End)
		}
		out = append(out, ch.Name)
		prev = ch
	}
	if st, ok := root.Attrs["state"]; ok {
		out = append(out, st)
	}
	return out
}
