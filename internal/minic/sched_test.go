package minic

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// runSeed compiles src and runs it at seed, failing the test if Run does not
// return within a few seconds.
func runSeed(t *testing.T, src string, seed int64, cfg MachineConfig) (string, error) {
	t.Helper()
	u, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg.Out = &out
	cfg.Seed = seed
	m := NewMachine(u, cfg)
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	select {
	case err := <-done:
		return out.String(), err
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
		return "", nil
	}
}

func TestUnlockOfUnlockedMutexIsARuntimeError(t *testing.T) {
	_, err := runSeed(t, "func main() {\n\tvar m = mutex();\n\tunlock(m);\n}", 1, MachineConfig{})
	if err == nil || !strings.Contains(err.Error(), "3:0: unlock of an unlocked mutex") {
		t.Fatalf("err = %v, want the unlock error on line 3", err)
	}
}

// TestDeadlockFailsEveryParkedThread: a program whose threads all park, with
// none runnable and none waiting outside the machine, fails at once with
// ErrDeadlock instead of blocking forever. Run waits for unjoined threads,
// so one that main leaves parked fails the run too.
func TestDeadlockFailsEveryParkedThread(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"sem_wait", "func main() {\n\tsem_wait(sem(0));\n}", "2:0"},
		{"relock", "func main() {\n\tvar m = mutex();\n\tlock(m);\n\tlock(m);\n}", "4:0"},
		{"join-on-parked", "var s = sem(0);\nfunc w() { sem_wait(s); }\nfunc main() {\n\tjoin(spawn(w));\n}", "2:0"},
		{"unjoined-parked", "var s = sem(0);\nfunc w() { sem_wait(s); }\nfunc main() { spawn(w); }", "thread 1: 2:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runSeed(t, tc.src, 1, MachineConfig{})
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("err = %v, want ErrDeadlock", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to name %q", err, tc.want)
			}
		})
	}
}

// TestCancelWakesParkedThread: a dead context ends a run whose main spins
// while another thread is parked on a semaphore.
func TestCancelWakesParkedThread(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	_, err := runSeed(t, `
var s = sem(0);
func w() { sem_wait(s); }
func main() {
	spawn(w);
	while (true) { }
}`, 1, MachineConfig{StepBudget: 1 << 40, Ctx: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// racyCounterSrc is Lab 1's buggy program: a load, a yield, a store.
const racyCounterSrc = `
var counter = 0;
func worker(n) {
	for (var i = 0; i < n; i = i + 1) {
		var v = counter;
		yield();
		counter = v + 1;
	}
}
func main() {
	var t1 = spawn(worker, 2000);
	var t2 = spawn(worker, 2000);
	join(t1);
	join(t2);
	println(counter);
}`

// TestSeedReplaysInterleaving: the same source and seed give the same
// output, and different seeds can interleave differently.
func TestSeedReplaysInterleaving(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		a, err := runSeed(t, racyCounterSrc, seed, MachineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := runSeed(t, racyCounterSrc, seed, MachineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("seed %d: two runs printed %q and %q", seed, a, b)
		}
		if a == "4000\n" {
			t.Fatalf("seed %d: the racy counter lost no update", seed)
		}
		seen[a] = true
	}
	if len(seen) < 2 {
		t.Fatalf("seeds 1-10 all printed %v", seen)
	}
}

// TestThreadWaitingOutsideIsNotDeadlocked: a thread blocked in readline has
// released the token, so its joiner parks without a deadlock and both run
// on once the line arrives.
func TestThreadWaitingOutsideIsNotDeadlocked(t *testing.T) {
	r, w := io.Pipe()
	time.AfterFunc(20*time.Millisecond, func() { io.WriteString(w, "late line\n") })
	out, err := runSeed(t, `
func reader() { return readline(); }
func main() {
	var t = spawn(reader);
	println(join(t));
}`, 1, MachineConfig{In: r})
	if err != nil || out != "late line\n" {
		t.Fatalf("out = %q, err = %v", out, err)
	}
}

// oneLineRunAllocs counts what NewMachine plus Run of a one-line program
// allocates: the Machine, its empty stdin reader and the printed line.
const oneLineRunAllocs = 3

// TestOneLineRunAllocations: a program that never spawns allocates nothing
// for the scheduler, so a one-line run stays at oneLineRunAllocs.
func TestOneLineRunAllocations(t *testing.T) {
	u, err := CompileSource(`func main() { println(1 + 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m := NewMachine(u, MachineConfig{})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > oneLineRunAllocs {
		t.Fatalf("NewMachine+Run allocates %v times, want <= %d", allocs, oneLineRunAllocs)
	}
}
