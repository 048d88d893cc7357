package minic

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// run compiles and executes src, returning stdout.
func run(t *testing.T, src string) string {
	t.Helper()
	out, err := tryRun(src, "")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

func tryRun(src, stdin string) (string, error) {
	u, err := CompileSource(src)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	m := NewMachine(u, MachineConfig{Out: &buf, In: strings.NewReader(stdin), Seed: 1})
	_, err = m.Run()
	return buf.String(), err
}

func TestHelloWorld(t *testing.T) {
	got := run(t, `func main() { println("hello, cluster"); }`)
	if got != "hello, cluster\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestArithmetic(t *testing.T) {
	got := run(t, `
func main() {
	println(1 + 2 * 3);
	println(10 / 3);
	println(10 % 3);
	println(7 - 10);
	println(2.5 + 1);
	println(-5);
	println(1 + 2 == 3);
	println(4 < 3);
	println("con" + "cat");
}`)
	want := "7\n3\n1\n-3\n3.5\n-5\ntrue\nfalse\nconcat\n"
	if got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

// TestFastBinaryMatchesApplyBinary pins the dispatch loop's numeric fast
// path to the general evaluator. Where fastBinary handles a case its result
// is applyBinary's bit for bit, also when it overwrites its left operand as
// OpBinary does; where applyBinary fails it declines, so diagnostics are
// built in one place; and it handles every numeric case that cannot fail.
func TestFastBinaryMatchesApplyBinary(t *testing.T) {
	var vals []Value
	for _, i := range []int64{0, 1, -1, 1<<53 + 1, math.MinInt64, math.MaxInt64} {
		vals = append(vals, IntValue(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1<<53 + 1,
		math.MinInt64, math.MaxInt64, math.Inf(1), math.Inf(-1), math.NaN()} {
		vals = append(vals, FloatValue(f))
	}
	vals = append(vals, BoolValue(false), BoolValue(true), StringValue(""), StringValue("a"), UnitValue())
	show := func(v Value) string { return fmt.Sprintf("%s(%s)", v.Kind, v) }
	same := func(x, y Value) bool {
		return x.Kind == y.Kind && x.I == y.I
	}
	for sym, op := range binOpCode {
		for _, a := range vals {
			for _, b := range vals {
				want, err := applyBinary(op, a, b, 1)
				var got Value
				ok := fastBinary(op, &a, &b, &got)
				aliased := a
				okAliased := fastBinary(op, &aliased, &b, &aliased)
				name := show(a) + " " + sym + " " + show(b)
				switch {
				case ok != okAliased:
					t.Errorf("%s: handled=%v, but %v when dst aliases a", name, ok, okAliased)
				case err != nil:
					if ok {
						t.Errorf("%s: fast path gave %s where applyBinary fails: %v", name, show(got), err)
					}
				case !ok:
					numeric := (a.Kind == KindInt || a.Kind == KindFloat) && (b.Kind == KindInt || b.Kind == KindFloat)
					if numeric {
						t.Errorf("%s: fast path declined a numeric case applyBinary evaluates", name)
					}
				case !same(got, want) || !same(aliased, want):
					t.Errorf("%s: fast path %s (aliased %s), applyBinary %s", name, show(got), show(aliased), show(want))
				}
			}
		}
	}
}

// TestMinMaxLargeInts: 2^53+1 and 2^53 are distinct ints but the same
// float64, so min and max must order ints as ints.
func TestMinMaxLargeInts(t *testing.T) {
	got := run(t, `
func main() {
	var a = 9007199254740993;
	var b = 9007199254740992;
	println(max(a, b), max(b, a), min(a, b), min(b, a));
	println(max(-a, -b), min(-a, -b));
}`)
	want := "9007199254740993 9007199254740993 9007199254740992 9007199254740992\n" +
		"-9007199254740992 -9007199254740993\n"
	if got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

func TestControlFlowExecution(t *testing.T) {
	got := run(t, `
func main() {
	var total = 0;
	for (var i = 1; i <= 10; i = i + 1) {
		if (i % 2 == 0) { continue; }
		total = total + i;
		if (total > 20) { break; }
	}
	println(total);
	var n = 3;
	while (n > 0) { n = n - 1; }
	println(n);
}`)
	if got != "25\n0\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	got := run(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { println(fib(15)); }`)
	if got != "610\n" {
		t.Fatalf("fib(15) output = %q", got)
	}
}

func TestArrays(t *testing.T) {
	got := run(t, `
func main() {
	var a = array(5);
	for (var i = 0; i < len(a); i = i + 1) { a[i] = i * i; }
	println(a);
	println(a[4]);
	var s = "abc";
	println(len(s), s[1]);
}`)
	want := "[0 1 4 9 16]\n16\n3 b\n"
	if got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

func TestGlobals(t *testing.T) {
	got := run(t, `
var counter = 100;
func bump() { counter = counter + 1; }
func main() { bump(); bump(); println(counter); }`)
	if got != "102\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestGlobalInitializersRunInOrder(t *testing.T) {
	got := run(t, `
var a = 2;
var b = a * 10;
func main() { println(b); }`)
	if got != "20\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestShadowingScopes(t *testing.T) {
	got := run(t, `
func main() {
	var x = 1;
	{
		var x = 2;
		println(x);
	}
	println(x);
}`)
	if got != "2\n1\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestBuiltinConversions(t *testing.T) {
	got := run(t, `
func main() {
	println(atoi("42") + 1);
	println(itoa(7) + "!");
	println(int(3.9));
	println(float(2));
	println(abs(-3), abs(2.5));
	println(min(3, 1), max(3, 1));
	println(sqrt(16.0));
}`)
	want := "43\n7!\n3\n2\n3 2.5\n1 3\n4\n"
	if got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

func TestReadline(t *testing.T) {
	u, err := CompileSource(`
func main() {
	var line = readline();
	while (line != "") {
		println("got: " + line);
		line = readline();
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m := NewMachine(u, MachineConfig{Out: &buf, In: strings.NewReader("one\ntwo\n")})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "got: one\ngot: two\n" {
		t.Fatalf("output = %q", buf.String())
	}
}

func TestMainReturnValue(t *testing.T) {
	u, err := CompileSource(`func main() { return 7; }`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewMachine(u, MachineConfig{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindInt || v.I != 7 {
		t.Fatalf("main returned %v", v)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		`func main() { println(1 / 0); }`:                  "division by zero",
		`func main() { println(1 % 0); }`:                  "modulo by zero",
		`func main() { var a = array(2); println(a[5]); }`: "out of range",
		`func main() { var a = array(2); a[-1] = 0; }`:     "out of range",
		`func main() { if (1) {} }`:                        "not bool",
		`func main() { println("a" - "b"); }`:              "numeric",
		`func main() { println(1 && true); }`:              "bool operands",
		`func main() { assert(1 == 2, "boom"); }`:          "assertion failed: boom",
		`func main() { var x = 5; println(x[0]); }`:        "cannot index",
		`func main() { lock(3); }`:                         "needs a mutex",
	}
	for src, wantSub := range cases {
		_, err := tryRun(src, "")
		if err == nil {
			t.Errorf("source %q ran without error", src)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("source %q: error %q missing %q", src, err, wantSub)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		`func f() {}`:                            "no main",
		`func main(a) {}`:                        "main must take no parameters",
		`func main() { x = 1; }`:                 "undefined variable",
		`func main() { println(y); }`:            "undefined variable",
		`func main() { nosuch(); }`:              "undefined function",
		`func main() { var a = 1; var a = 2; }`:  "redeclared",
		`func main() {} func main() {}`:          "duplicate function",
		`var g = 1; var g = 2; func main() {}`:   "duplicate global",
		`func main() { break; }`:                 "break outside loop",
		`func main() { continue; }`:              "continue outside loop",
		`func f(a) {} func main() { f(); }`:      "takes 1",
		`func main() { len(); }`:                 "takes 1",
		`func print() {} func main() {}`:         "shadows a builtin",
		`func main() { spawn(42); }`:             "function name",
		`func main() { spawn(nosuch); }`:         "undefined function",
		`func f(a) {} func main() { spawn(f); }`: "function takes 1",
	}
	for src, wantSub := range cases {
		_, err := CompileSource(src)
		if err == nil {
			t.Errorf("source %q compiled without error", src)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("source %q: error %q missing %q", src, err, wantSub)
		}
	}
}

// spinLoops are the endless loops the budget and cancellation tests stop:
// an empty one, and one whose only builtin does not block, so nothing but
// the interpreter's periodic batch flush checks them.
var spinLoops = []struct{ name, src string }{
	{"empty", `func main() { while (true) { } }`},
	{"non-blocking-builtin", `func main() { while (true) { var x = float(1); } }`},
}

func TestStepBudget(t *testing.T) {
	for _, tc := range spinLoops {
		t.Run(tc.name, func(t *testing.T) {
			u, err := CompileSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(u, MachineConfig{StepBudget: 10_000})
			_, err = m.Run()
			if !errors.Is(err, ErrStepBudget) {
				t.Fatalf("infinite loop err = %v, want ErrStepBudget", err)
			}
			if m.Steps() < 10_000 {
				t.Fatalf("Steps = %d", m.Steps())
			}
		})
	}
}

func TestRunawayRecursionFails(t *testing.T) {
	_, err := tryRun(`func f() { return f(); } func main() { f(); }`, "")
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("runaway recursion err = %v", err)
	}
}

func TestThreadsJoinAndReturnValues(t *testing.T) {
	got := run(t, `
func square(x) { return x * x; }
func main() {
	var t1 = spawn(square, 5);
	var t2 = spawn(square, 7);
	println(join(t1) + join(t2));
}`)
	if got != "74\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestThreadsWithMutexCounterIsExact(t *testing.T) {
	// The fixed version of the bank-account lab: with a mutex, no updates
	// are lost.
	got := run(t, `
var balance = 0;
var m = mutex();
func add(n) {
	for (var i = 0; i < n; i = i + 1) {
		lock(m);
		balance = balance + 1;
		unlock(m);
	}
}
func main() {
	var t1 = spawn(add, 2000);
	var t2 = spawn(add, 2000);
	join(t1);
	join(t2);
	println(balance);
}`)
	if got != "4000\n" {
		t.Fatalf("output = %q, want 4000 (mutex lost updates!)", got)
	}
}

func TestSemaphoreProducerConsumer(t *testing.T) {
	got := run(t, `
var buf = array(4);
var fill = sem(0);
var empty = sem(4);
var m = mutex();
var inpos = 0;
var outpos = 0;
var consumed = 0;
func producer(n) {
	for (var i = 1; i <= n; i = i + 1) {
		sem_wait(empty);
		lock(m);
		buf[inpos] = i;
		inpos = (inpos + 1) % 4;
		unlock(m);
		sem_signal(fill);
	}
}
func consumer(n) {
	for (var i = 0; i < n; i = i + 1) {
		sem_wait(fill);
		lock(m);
		consumed = consumed + buf[outpos];
		outpos = (outpos + 1) % 4;
		unlock(m);
		sem_signal(empty);
	}
}
func main() {
	var p = spawn(producer, 100);
	var c = spawn(consumer, 100);
	join(p);
	join(c);
	println(consumed);
}`)
	if got != "5050\n" {
		t.Fatalf("bounded buffer consumed = %q, want 5050", got)
	}
}

func TestThreadErrorPropagates(t *testing.T) {
	_, err := tryRun(`
func bad() { println(1 / 0); }
func main() { join(spawn(bad)); }`, "")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("thread error = %v", err)
	}
}

func TestUnjoinedThreadStillWaitedAtExit(t *testing.T) {
	// Run waits for stray threads, so their output always lands.
	got := run(t, `
var m = mutex();
var done = 0;
func side() { lock(m); done = 1; unlock(m); }
func main() { spawn(side); }`)
	_ = got // no output; the test is that Run returns without racing
}

func TestSequentialMPIBuiltins(t *testing.T) {
	got := run(t, `
func main() {
	println(rank(), size());
	barrier();
	println(bcast(0, 42));
	println(reduce_sum(5));
	println(time_ns());
}`)
	want := "0 1\n42\n5\n0\n"
	if got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

func TestSendFailsSequentially(t *testing.T) {
	_, err := tryRun(`func main() { send(1, 5); }`, "")
	if err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("send err = %v", err)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	src := `func main() { for (var i = 0; i < 5; i = i + 1) { print(random(100), ""); } }`
	a, err := tryRun(src, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tryRun(src, "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed produced different streams: %q vs %q", a, b)
	}
}

// TestMachineBuildsRNGAndReaderOnFirstUse: a rank seeds its RNG and wraps
// its input only when the program first calls random() or readline(), and
// random() still draws the seed's sequence.
func TestMachineBuildsRNGAndReaderOnFirstUse(t *testing.T) {
	u, err := CompileSource(`func main() { println(1 + 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(u, MachineConfig{In: strings.NewReader("unread\n"), Seed: 1})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.rng != nil || m.in != nil {
		t.Fatalf("a program calling neither random() nor readline() left rng %v, reader %v", m.rng != nil, m.in != nil)
	}

	u, err = CompileSource(`func main() { println(readline()); println(random(1000)); println(random(1000)); }`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m = NewMachine(u, MachineConfig{Out: &buf, In: strings.NewReader("line\n"), Seed: 7})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ref := rand.New(rand.NewSource(7))
	if want := fmt.Sprintf("line\n%d\n%d\n", ref.Int63n(1000), ref.Int63n(1000)); buf.String() != want {
		t.Fatalf("output = %q, want %q", buf.String(), want)
	}
}

func TestValueStringForms(t *testing.T) {
	got := run(t, `
func noop() {}
func main() {
	var t = spawn(noop);
	join(t);
	println(mutex());
	println(sem(1));
	var a = array(2);
	println(a);
}`)
	if !strings.Contains(got, "<mutex>") || !strings.Contains(got, "<semaphore>") || !strings.Contains(got, "[0 0]") {
		t.Fatalf("output = %q", got)
	}
}

func TestSemTryWait(t *testing.T) {
	got := run(t, `
func main() {
	var s = sem(1);
	println(sem_trywait(s));
	println(sem_trywait(s));
}`)
	if got != "true\nfalse\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestDisassembleSmoke(t *testing.T) {
	u, err := CompileSource(`func main() { println(1 + 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Disassemble()
	if !strings.Contains(d, "func main") {
		t.Fatalf("disassembly = %q", d)
	}
}
