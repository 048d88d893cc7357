package grading

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/labs"
	"repro/internal/scheduler"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

func newGrader(t *testing.T) *Grader {
	t.Helper()
	sim := clock.NewSim()
	clus, err := cluster.New(config.Default(), sim)
	if err != nil {
		t.Fatal(err)
	}
	tools := toolchain.NewService(sim)
	store := jobs.NewStore(0, sim)
	fs := vfs.New(1<<26, sim)
	sched := scheduler.New(clus, tools, store, fs, scheduler.Options{
		MaxNodesPerJob: 32,
		WallTime:       60 * time.Second,
	})
	sched.Start(time.Millisecond)
	t.Cleanup(sched.Stop)
	return &Grader{FS: fs, Store: store, Sched: sched, Timeout: 60 * time.Second}
}

func TestFixedSubmissionsScoreAtLeast70(t *testing.T) {
	g := newGrader(t)
	for _, lab := range labs.All() {
		gr, err := g.GradeSubmission("ada", lab, true)
		if err != nil {
			t.Fatalf("%v: %v", lab, err)
		}
		if gr.Band != BandCorrect {
			t.Errorf("%v fixed band = %v (output %q)", lab, gr.Band, gr.Output)
			continue
		}
		if gr.Score < 70 || gr.Score > 100 || !gr.Passed {
			t.Errorf("%v fixed score = %d passed=%v", lab, gr.Score, gr.Passed)
		}
	}
}

func TestBuggySubmissionsFail(t *testing.T) {
	g := newGrader(t)
	// Every buggy source fails on its one run: the racy ones replay the
	// interleaving of the rank's seed, which loses updates.
	for _, lab := range labs.All() {
		gr, err := g.GradeSubmission("bob", lab, false)
		if err != nil {
			t.Fatalf("%v: %v", lab, err)
		}
		if gr.Band == BandCorrect || gr.Score >= 70 || gr.Passed {
			t.Errorf("%v buggy submission band = %v score = %d passed=%v (output %q)", lab, gr.Band, gr.Score, gr.Passed, gr.Output)
		}
	}
}

func TestSyntaxErrorIsBroken(t *testing.T) {
	g := newGrader(t)
	gr, err := g.GradeSource("eve", labs.Lab1Synchronization, "func main() { var x = ; }")
	if err != nil {
		t.Fatal(err)
	}
	if gr.Band != BandBroken || gr.Score > 30 || gr.Passed {
		t.Fatalf("syntax error grade = %+v", gr)
	}
	if !strings.Contains(gr.Output, "compile failed") {
		t.Fatalf("output = %q", gr.Output)
	}
}

func TestCrashIsBroken(t *testing.T) {
	g := newGrader(t)
	gr, err := g.GradeSource("eve", labs.Lab1Synchronization, "func main() { println(1/0); }")
	if err != nil {
		t.Fatal(err)
	}
	if gr.Band != BandBroken {
		t.Fatalf("crash band = %v", gr.Band)
	}
}

// TestStuckRunIsCancelled: a run that outlives the grader's timeout is
// graded broken, and its job is cancelled rather than left running on its
// node.
func TestStuckRunIsCancelled(t *testing.T) {
	g := newGrader(t)
	g.Timeout = 200 * time.Millisecond
	gr, err := g.GradeSource("eve", labs.Lab1Synchronization, "func main() { while (true) { } }")
	if err != nil {
		t.Fatal(err)
	}
	if gr.Band != BandBroken {
		t.Fatalf("stuck run band = %v", gr.Band)
	}
	job, err := g.Store.Get(gr.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.State(); st != jobs.StateCancelled {
		t.Fatalf("stuck job is %s after grading, want cancelled", st)
	}
}

func TestScoresAreDeterministicPerSubmission(t *testing.T) {
	g := newGrader(t)
	a, _ := g.GradeSubmission("carol", labs.Lab5BankAccount, true)
	b, _ := g.GradeSubmission("carol", labs.Lab5BankAccount, true)
	if a.Score != b.Score {
		t.Fatalf("same submission scored %d then %d", a.Score, b.Score)
	}
	// Different students get (generally) different style components.
	c1, _ := g.GradeSubmission("dan", labs.Lab5BankAccount, true)
	if c1.Band != BandCorrect {
		t.Fatalf("dan band = %v", c1.Band)
	}
}

func TestPassingRate(t *testing.T) {
	if PassingRate(nil) != 0 {
		t.Fatal("empty passing rate nonzero")
	}
	grades := []Grade{{Passed: true}, {Passed: false}, {Passed: true}, {Passed: true}}
	if got := PassingRate(grades); got != 0.75 {
		t.Fatalf("PassingRate = %f", got)
	}
}

func TestBandString(t *testing.T) {
	if BandCorrect.String() != "correct" || BandWrong.String() != "wrong" || BandBroken.String() != "broken" {
		t.Fatal("band names")
	}
	if Band(9).String() != "Band(9)" {
		t.Fatal("unknown band name")
	}
}
