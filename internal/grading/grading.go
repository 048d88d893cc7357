// Package grading is the course's auto-grader. A submission is a minic
// source for one of the seven labs; grading pushes it through the real
// system — upload to the student's home directory, submit to the job store,
// let the scheduler compile and dispatch it onto the simulated cluster, then
// inspect the captured output — and scores it against the lab's rubric.
//
// Scores are on the paper's 0–100 scale with 70 as the passing line
// ("Passing rate is the percentage of the students who have scored at least
// 70 out of 100"). A submission whose output matches the lab's expected
// RESULT line lands in [70,100]; one that compiles and runs but produces
// wrong results lands in [35,65]; one that fails to compile or crashes lands
// in [0,30]. The within-band position is a deterministic per-submission
// style component, standing in for the human-graded portion.
package grading

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/labs"
	"repro/internal/scheduler"
	"repro/internal/vfs"
)

// Band classifies a submission's outcome.
type Band int

// Grading bands.
const (
	// BandCorrect: compiled, ran, produced the expected RESULT.
	BandCorrect Band = iota
	// BandWrong: compiled and ran but the RESULT check failed.
	BandWrong
	// BandBroken: failed to compile, crashed, or timed out.
	BandBroken
)

// String names the band.
func (b Band) String() string {
	switch b {
	case BandCorrect:
		return "correct"
	case BandWrong:
		return "wrong"
	case BandBroken:
		return "broken"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// Grade is a scored submission.
type Grade struct {
	Student string
	Lab     labs.ID
	Band    Band
	// Score is the 0–100 grade; Passed means Score >= 70.
	Score  int
	Passed bool
	// JobID is the portal job that ran the submission.
	JobID string
	// Output is the submission's captured stdout (truncated).
	Output string
}

// Grader grades submissions through a backend.
type Grader struct {
	FS    *vfs.FS
	Store *jobs.Store
	// Sched cancels a grading run that outlives Timeout.
	Sched *scheduler.Scheduler
	// Timeout bounds one grading run; 0 means 30s.
	Timeout time.Duration
}

// styleComponent returns a deterministic pseudo-random value in [0, n) from
// the submission identity — the simulated human-graded share of the score.
func styleComponent(student string, lab labs.ID, n int) int {
	h := fnv.New32a()
	h.Write([]byte(student))
	h.Write([]byte{byte(lab)})
	return int(h.Sum32() % uint32(n))
}

// score converts a band into a numeric grade.
func score(student string, lab labs.ID, band Band) int {
	switch band {
	case BandCorrect:
		return 70 + styleComponent(student, lab, 31) // 70..100
	case BandWrong:
		return 35 + styleComponent(student, lab, 31) // 35..65
	default:
		return styleComponent(student, lab, 31) // 0..30
	}
}

// GradeSource grades the given source text as student's submission for lab.
// The submission runs once. Its ranks' seeds are fixed, so a one-rank job's
// threads replay the same interleaving on every run, and running it again
// would only repeat the grade. A run that outlives Timeout is cancelled,
// freeing its nodes, and graded broken.
func (g *Grader) GradeSource(student string, lab labs.ID, source string) (Grade, error) {
	timeout := g.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	home := g.FS.EnsureHome(student)
	path := fmt.Sprintf("/submissions/lab%d.mc", int(lab))
	if err := home.MkdirAll("/submissions"); err != nil {
		return Grade{}, err
	}
	if err := home.WriteFile(path, []byte(source)); err != nil {
		return Grade{}, err
	}
	job, err := g.Store.Submit(jobs.Spec{
		Owner:      student,
		SourcePath: path,
		Language:   "minic",
		Ranks:      labs.Ranks(lab),
		StepBudget: labs.StepBudget,
	})
	if err != nil {
		return Grade{}, err
	}
	band := BandBroken
	snap, err := g.Store.WaitTerminal(job.ID, timeout)
	output := job.Stdout.String()
	if err != nil {
		// Stuck job: stop it, grade it broken and keep grading the cohort.
		// Cancel fails only if the job ended in the meantime; then it is
		// left as it ended.
		_ = g.Sched.Cancel(job.ID)
	} else if snap.State == jobs.StateSucceeded {
		band = BandWrong
		if strings.Contains(output, labs.ExpectedOutput(lab)) {
			band = BandCorrect
		}
	}
	return g.finish(student, lab, job.ID, band, output), nil
}

func (g *Grader) finish(student string, lab labs.ID, jobID string, band Band, output string) Grade {
	if len(output) > 2048 {
		output = output[:2048]
	}
	s := score(student, lab, band)
	return Grade{
		Student: student,
		Lab:     lab,
		Band:    band,
		Score:   s,
		Passed:  s >= 70,
		JobID:   jobID,
		Output:  output,
	}
}

// GradeSubmission grades the canonical buggy or fixed version of a lab —
// what the cohort simulation uses once the mastery model has decided which
// one the student would hand in.
func (g *Grader) GradeSubmission(student string, lab labs.ID, mastered bool) (Grade, error) {
	return g.GradeSource(student, lab, labs.MinicSource(lab, mastered))
}

// PassingRate returns the fraction of grades with Passed set, in [0,1].
func PassingRate(grades []Grade) float64 {
	if len(grades) == 0 {
		return 0
	}
	n := 0
	for _, gr := range grades {
		if gr.Passed {
			n++
		}
	}
	return float64(n) / float64(len(grades))
}
