package labs

import (
	"bytes"
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

func TestLab1SynchronizedIsExact(t *testing.T) {
	res := RunLab1(5000, true)
	if !res.Correct || res.Observed != 10000 {
		t.Fatalf("synchronized counter: %+v", res)
	}
}

func TestLab1UnsynchronizedLosesUpdates(t *testing.T) {
	// The race is probabilistic per-run; across a few attempts it is
	// essentially certain.
	for attempt := 0; attempt < 5; attempt++ {
		res := RunLab1(5000, false)
		if !res.Correct {
			if res.Observed >= res.Expected {
				t.Fatalf("lost-update run gained updates: %+v", res)
			}
			return
		}
	}
	t.Fatal("unsynchronized counter was correct 5 times in a row")
}

func TestLab2WithLockIsExactAndGeneratesInvalidations(t *testing.T) {
	res, err := RunLab2(4, 200, true)
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

func TestLab2WithoutLockLosesUpdates(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		res, err := RunLab2(4, 500, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			return
		}
	}
	t.Fatal("unlocked memsim increments were correct 5 times in a row")
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
	input := []int64{5, 3, 9, 12, 7, -1}
	res := RunLab4(input, true)
	if !res.Correct {
		t.Fatalf("synced copy failed: %+v", res)
	}
}

func TestLab4AppendsSentinelWhenMissing(t *testing.T) {
	res := RunLab4([]int64{1, 2, 3}, true)
	if !res.Correct || res.Expected != 4 {
		t.Fatalf("sentinel handling: %+v", res)
	}
}

func TestLab4UnsyncedUsuallyWrong(t *testing.T) {
	input := make([]int64, 200)
	for i := range input {
		input[i] = int64(i + 1)
	}
	input[199] = -1
	for attempt := 0; attempt < 5; attempt++ {
		if res := RunLab4(input, false); !res.Correct {
			return
		}
	}
	t.Fatal("unsynced copy was correct 5 times in a row")
}

func TestLab5MutexBalanceExact(t *testing.T) {
	res := RunLab5(60000, 50000, true)
	if !res.Correct || res.Observed != 990_000 {
		t.Fatalf("mutex balance: %+v", res)
	}
}

func TestLab5PaperScenario(t *testing.T) {
	// The paper's exact numbers: 1M start, withdraw 600k, deposit 500k.
	res := RunLab5(600_000, 500_000, true)
	if !res.Correct || res.Observed != 900_000 {
		t.Fatalf("paper scenario: %+v", res)
	}
}

func TestLab5UnsynchronizedWrong(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		if res := RunLab5(30000, 25000, false); !res.Correct {
			return
		}
	}
	t.Fatal("racy balance was correct 5 times in a row")
}

func TestLab6UnorderedDeadlocks(t *testing.T) {
	res := RunLab6(3, false)
	if !res.Deadlocked {
		t.Fatalf("unordered philosophers did not deadlock: %+v", res.Result)
	}
	if res.Correct {
		t.Fatal("deadlocked run reported correct")
	}
	// The event log must show each philosopher acquiring its first fork
	// and at least one blocking.
	acquires, blocked := 0, 0
	for _, e := range res.Events {
		switch e.Action {
		case "acquire":
			acquires++
		case "blocked":
			blocked++
		}
	}
	if acquires < 5 || blocked == 0 {
		t.Fatalf("event log: %d acquires, %d blocked", acquires, blocked)
	}
}

func TestLab6OrderedCompletes(t *testing.T) {
	res := RunLab6(3, true)
	if res.Deadlocked || !res.Correct || res.Meals != 15 {
		t.Fatalf("ordered philosophers: %+v", res.Result)
	}
}

func TestPA3FixedModesAlwaysCorrect(t *testing.T) {
	for _, mode := range []PA3Mode{PA3Mutex, PA3Semaphore} {
		for trial := 0; trial < 3; trial++ {
			res := RunPA3(1000, 4, mode)
			if !res.Correct {
				t.Fatalf("mode %v trial %d: %+v", mode, trial, res)
			}
		}
	}
}

func TestPA3BrokenUsuallyWrong(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		if res := RunPA3(2000, 2, PA3Broken); !res.Correct {
			return
		}
	}
	t.Fatal("broken bounded buffer was correct 8 times in a row")
}

func TestPA3ModeString(t *testing.T) {
	if PA3Broken.String() != "broken" || PA3Mutex.String() != "mutex" || PA3Semaphore.String() != "semaphore" {
		t.Fatal("mode names wrong")
	}
	if PA3Mode(9).String() != "PA3Mode(9)" {
		t.Fatal("unknown mode name wrong")
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

// runMinic executes a lab source as one rank at seed and returns stdout.
func runMinic(t *testing.T, src string, seed int64) string {
	t.Helper()
	u, err := minic.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := minic.NewMachine(u, minic.MachineConfig{Out: &out, StepBudget: 500_000_000, Seed: seed})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	return out.String()
}

// sweepSeeds runs a single-rank lab source twice at each of seeds 1-10,
// requires the two runs to print the same bytes, and returns how many seeds
// passed the lab's check.
func sweepSeeds(t *testing.T, id ID, fixed bool) int {
	t.Helper()
	src, want := MinicSource(id, fixed), ExpectedOutput(id)
	passed := 0
	for seed := int64(1); seed <= 10; seed++ {
		out := runMinic(t, src, seed)
		if again := runMinic(t, src, seed); again != out {
			t.Errorf("lab %v fixed=%v seed %d: runs printed %q and %q", id, fixed, seed, out, again)
		}
		if strings.Contains(out, want) {
			passed++
		}
	}
	return passed
}

func TestFixedMinicSourcesProduceExpectedOutput(t *testing.T) {
	// Lab 3 needs a 20-rank cluster job; the others run as one rank, and
	// pass on every seed.
	for _, id := range All() {
		if id == Lab3UMANUMA {
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
		if id == Lab3UMANUMA {
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
