package labs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/minic"
)

func TestAllListsSevenAssignments(t *testing.T) {
	if len(All()) != 7 {
		t.Fatalf("All() = %d labs", len(All()))
	}
	for _, id := range All() {
		if strings.HasPrefix(id.Title(), "Lab(") {
			t.Errorf("lab %d has no title", id)
		}
	}
	if !strings.Contains(Lab3UMANUMA.Title(), "UMA and NUMA") {
		t.Fatalf("Lab3 title = %q", Lab3UMANUMA.Title())
	}
}

// runAt runs a one-rank lab at seed, failing the test on an error.
func runAt(t *testing.T, id ID, fixed bool, seed int64) Result {
	t.Helper()
	res, err := Run(id, fixed, seed)
	if err != nil {
		t.Fatalf("lab %v fixed=%v seed %d: %v (output %q)", id, fixed, seed, err, res.Output)
	}
	return res
}

func TestLab1SynchronizedIsExact(t *testing.T) {
	if res := runAt(t, Lab1Synchronization, true, 1); !res.Correct || res.Detail != "RESULT counter 20000" {
		t.Fatalf("synchronized counter: %+v", res)
	}
}

func TestLab1UnsynchronizedLosesUpdates(t *testing.T) {
	res := runAt(t, Lab1Synchronization, false, 1)
	var got int
	if _, err := fmt.Sscanf(res.Detail, "RESULT counter %d", &got); err != nil || res.Correct || got >= 20000 {
		t.Fatalf("racy counter did not lose updates: %+v", res)
	}
}

func TestLab2WithLockIsExactAndGeneratesInvalidations(t *testing.T) {
	res, err := RunLab2(4, 200, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("locked increments lost: %+v", res.Result)
	}
	if res.Stats.Invalidations == 0 {
		t.Fatal("TAS spinning produced no invalidations")
	}
}

// TestLab2WithoutLockLosesUpdates: one goroutine steps the simulated cores
// from a seeded picker, so at every seed two runs give the same stats, the
// TAS-locked count is exact and the unlocked one loses updates.
func TestLab2WithoutLockLosesUpdates(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, useLock := range []bool{false, true} {
			a, err := RunLab2(4, 300, useLock, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := RunLab2(4, 300, useLock, seed)
			if a.Stats != b.Stats || a.Detail != b.Detail {
				t.Errorf("seed %d lock=%v: runs differ: %s %+v and %s %+v", seed, useLock, a.Detail, a.Stats, b.Detail, b.Stats)
			}
			if a.Correct != useLock {
				t.Errorf("seed %d lock=%v: %s", seed, useLock, a.Detail)
			}
		}
	}
}

func TestLab3NUMASlowerThanUMA(t *testing.T) {
	res, err := RunLab3(200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("NUMA not slower: %+v", res)
	}
	if res.Ratio < 1.5 {
		t.Fatalf("NUMA ratio %.2f implausibly small", res.Ratio)
	}
}

func TestLab4SyncedCopiesExactly(t *testing.T) {
	if res := runAt(t, Lab4ProcessThread, true, 1); !res.Correct || res.Detail != "RESULT copied_ok true" {
		t.Fatalf("synced copy: %+v", res)
	}
}

func TestLab4UnsyncedUsuallyWrong(t *testing.T) {
	if res := runAt(t, Lab4ProcessThread, false, 1); res.Correct || res.Detail != "RESULT copied_ok false" {
		t.Fatalf("unsynced copy: %+v", res)
	}
}

func TestLab5MutexBalanceExact(t *testing.T) {
	// The paper's ending balance: 1M - 600k + 500k, scaled in the source.
	if res := runAt(t, Lab5BankAccount, true, 1); !res.Correct || res.Detail != "RESULT balance 900000" {
		t.Fatalf("mutex balance: %+v", res)
	}
}

func TestLab5UnsynchronizedWrong(t *testing.T) {
	if res := runAt(t, Lab5BankAccount, false, 1); res.Correct {
		t.Fatalf("racy balance was right: %+v", res)
	}
}

func TestLab6UnorderedDeadlocks(t *testing.T) {
	// Every philosopher holds its left fork and gives up on its right one.
	res := runAt(t, Lab6Deadlock, false, 1)
	if res.Correct || res.Detail != "RESULT meals 0" || strings.Count(res.Output, "blocked on fork") != 5 {
		t.Fatalf("unordered philosophers:\n%s", res.Output)
	}
}

func TestLab6OrderedCompletes(t *testing.T) {
	if res := runAt(t, Lab6Deadlock, true, 1); !res.Correct || res.Output != "RESULT meals 15\n" {
		t.Fatalf("ordered philosophers:\n%s", res.Output)
	}
}

// TestPA3FixedModesAlwaysCorrect: the semaphore fix delivers 1..1000 in
// order at every seed tried.
func TestPA3FixedModesAlwaysCorrect(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if res := runAt(t, PA3BoundedBuffer, true, seed); !res.Correct || res.Detail != "RESULT sum 500500 bad 0" {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestPA3BrokenUsuallyWrong(t *testing.T) {
	if res := runAt(t, PA3BoundedBuffer, false, 1); res.Correct {
		t.Fatalf("broken bounded buffer was right: %+v", res)
	}
}

func TestRunNeedsAOneRankLab(t *testing.T) {
	if _, err := Run(Lab3UMANUMA, true, 1); err == nil || !strings.Contains(err.Error(), "20-rank") {
		t.Fatalf("Run(Lab3) err = %v, want the 20-rank error", err)
	}
	if _, err := Run(ID(99), true, 1); err == nil {
		t.Fatal("Run accepted an unknown lab")
	}
}

// --- minic sources -------------------------------------------------------------

func TestAllMinicSourcesCompile(t *testing.T) {
	for _, id := range All() {
		for _, fixed := range []bool{false, true} {
			src := MinicSource(id, fixed)
			if src == "" {
				t.Fatalf("lab %v fixed=%v has no source", id, fixed)
			}
			if _, err := minic.CompileSource(src); err != nil {
				t.Errorf("lab %v fixed=%v does not compile: %v", id, fixed, err)
			}
		}
	}
	if MinicSource(ID(99), true) != "" {
		t.Fatal("unknown lab returned a source")
	}
}

// sweepSeeds runs a one-rank lab twice at each of seeds 1-10, requires the
// two runs to print the same bytes, and returns how many seeds passed the
// lab's check.
func sweepSeeds(t *testing.T, id ID, fixed bool) int {
	t.Helper()
	passed := 0
	for seed := int64(1); seed <= 10; seed++ {
		res := runAt(t, id, fixed, seed)
		if again := runAt(t, id, fixed, seed); again.Output != res.Output {
			t.Errorf("lab %v fixed=%v seed %d: runs printed %q and %q", id, fixed, seed, res.Output, again.Output)
		}
		if res.Correct {
			passed++
		}
	}
	return passed
}

func TestFixedMinicSourcesProduceExpectedOutput(t *testing.T) {
	// Lab 3 needs a 20-rank cluster job; the others run as one rank, and
	// pass on every seed.
	for _, id := range All() {
		if Ranks(id) != 1 {
			continue
		}
		if passed := sweepSeeds(t, id, true); passed != 10 {
			t.Errorf("lab %v fixed source passed on %d of 10 seeds", id, passed)
		}
	}
}

func TestBuggyMinicSourcesFailTheCheck(t *testing.T) {
	// Each racy buggy source fails on at least 9 of 10 seeds; Lab 6's
	// cyclic hold-and-wait fails on every one.
	for _, id := range All() {
		if Ranks(id) != 1 {
			continue // needs the cluster; covered by the grading tests
		}
		minFailed := 9
		if id == Lab6Deadlock {
			minFailed = 10
		}
		if failed := 10 - sweepSeeds(t, id, false); failed < minFailed {
			t.Errorf("lab %v buggy source failed on %d of 10 seeds, want >= %d", id, failed, minFailed)
		}
	}
}

func TestRanks(t *testing.T) {
	if Ranks(Lab3UMANUMA) != 20 {
		t.Fatalf("lab3 ranks = %d", Ranks(Lab3UMANUMA))
	}
	if Ranks(Lab1Synchronization) != 1 {
		t.Fatalf("lab1 ranks = %d", Ranks(Lab1Synchronization))
	}
}
