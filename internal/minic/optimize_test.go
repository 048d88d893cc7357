package minic

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// compileMode compiles src with the optimizer on or off.
func compileMode(t *testing.T, src string, optimize bool) *Unit {
	t.Helper()
	u, err := CompileSourceWithOptions(src, CompileOptions{DisableOptimize: !optimize})
	if err != nil {
		t.Fatalf("compile (optimize=%v): %v", optimize, err)
	}
	return u
}

// runUnit executes a compiled unit and returns stdout and the run error.
func runUnit(u *Unit, stdin string) (string, error) {
	var buf bytes.Buffer
	m := NewMachine(u, MachineConfig{Out: &buf, In: strings.NewReader(stdin), Seed: 1})
	_, err := m.Run()
	return buf.String(), err
}

func findFunc(t *testing.T, u *Unit, name string) *CompiledFunc {
	t.Helper()
	for _, f := range u.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %q in unit", name)
	return nil
}

func TestConstantFoldingCollapsesExpressions(t *testing.T) {
	src := `
func f() { return 1 + 2 * 3 - -4; }
func main() { println(f()); }`
	u := compileMode(t, src, true)
	f := findFunc(t, u, "f")
	// The compiler appends a safety retnil; everything before it must have
	// folded to a single constant return.
	if len(f.Base) != 3 || f.Base[0].Op != OpConst || f.Base[1].Op != OpReturn {
		t.Fatalf("f not folded to const+ret:\n%s", u.Disassemble())
	}
	if v := u.Consts[f.Base[0].A]; v.Kind != KindInt || v.I != 11 {
		t.Fatalf("folded constant = %v, want 11", v)
	}
	out, err := runUnit(u, "")
	if err != nil || out != "11\n" {
		t.Fatalf("run: out=%q err=%v", out, err)
	}
}

func TestFoldingLeavesRuntimeErrorsInPlace(t *testing.T) {
	// 1/0 must not fold: the error has to fire at runtime, on the right
	// line, with and without the optimizer.
	src := `func main() {
	println("before");
	println(1 / 0);
}`
	var msgs [2]string
	for i, opt := range []bool{false, true} {
		u := compileMode(t, src, opt)
		out, err := runUnit(u, "")
		if err == nil {
			t.Fatalf("optimize=%v: expected a runtime error", opt)
		}
		if out != "before\n" {
			t.Fatalf("optimize=%v: output before error = %q", opt, out)
		}
		msgs[i] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error drifted under optimization:\n  off: %s\n  on:  %s", msgs[0], msgs[1])
	}
	if !strings.Contains(msgs[1], "division by zero") || !strings.Contains(msgs[1], "3:") {
		t.Fatalf("error lost position or message: %s", msgs[1])
	}
}

func TestDeadPopElimination(t *testing.T) {
	// The parser only admits call expression statements, so bare push+pop
	// pairs reach the optimizer via other passes; test the pass directly,
	// including jump retargeting across the removed window.
	code := []Instr{
		{Op: OpConst, A: 0},     // 0: removed
		{Op: OpPop},             // 1: removed
		{Op: OpLoadLocal, A: 0}, // 2: -> 0
		{Op: OpJumpIfFalse, A: 6},
		{Op: OpConst, A: 1}, // 4: removed
		{Op: OpPop},         // 5: removed
		{Op: OpJump, A: 0},  // 6: must retarget to 0's replacement (index 0)
		{Op: OpReturnNil},   // 7
	}
	out, changed := elideDeadPops(code)
	if !changed {
		t.Fatal("elideDeadPops made no change")
	}
	want := []Instr{
		{Op: OpLoadLocal, A: 0},
		{Op: OpJumpIfFalse, A: 2},
		{Op: OpJump, A: 0},
		{Op: OpReturnNil},
	}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(out), len(want), out)
	}
	for i := range want {
		if out[i].Op != want[i].Op || out[i].A != want[i].A {
			t.Fatalf("instr %d = %+v, want %+v", i, out[i], want[i])
		}
	}
	// A branch to the *first* instruction of a net-zero pair is fine: the
	// pair disappears and the branch retargets to the next instruction.
	first := []Instr{
		{Op: OpJump, A: 1},
		{Op: OpConst, A: 0},
		{Op: OpPop},
		{Op: OpReturnNil},
	}
	out2, changed := elideDeadPops(first)
	if !changed || len(out2) != 2 || out2[0].A != 1 {
		t.Fatalf("branch-to-window-start handling wrong: %+v", out2)
	}
	// A pop whose *own* index is a branch target pins the pair in place.
	interior := []Instr{
		{Op: OpJump, A: 2},
		{Op: OpConst, A: 0},
		{Op: OpPop}, // jump target: removing it would change meaning
		{Op: OpReturnNil},
	}
	if _, changed := elideDeadPops(interior); changed {
		t.Fatal("elideDeadPops removed a pair whose pop is a jump target")
	}
}

func TestSuperinstructionFusion(t *testing.T) {
	src := `
func sum(n) {
	var total = 0;
	for (var i = 0; i < n; i = i + 1) {
		total = total + i;
	}
	return total;
}
func main() { println(sum(10)); }`
	u := compileMode(t, src, true)
	// The superinstructions are part of Base, the canonical code that
	// defines the step counts; macro-ops are built on top of it in Code.
	emitted := map[OpCode]bool{}
	for _, in := range findFunc(t, u, "sum").Base {
		emitted[in.Op] = true
	}
	for _, want := range []OpCode{OpLoadLocalConstBin, OpLoadLocal2Bin, OpConstStoreLocal} {
		if !emitted[want] {
			t.Errorf("no %s superinstruction emitted:\n%s", want, u.Disassemble())
		}
	}
	plain := compileMode(t, src, false)
	if strings.Contains(plain.Disassemble(), "+") {
		t.Fatal("DisableOptimize still emitted fused instructions or macro-ops")
	}
	for _, u := range []*Unit{u, plain} {
		out, err := runUnit(u, "")
		if err != nil || out != "45\n" {
			t.Fatalf("run: out=%q err=%v", out, err)
		}
	}
}

func TestJumpThreadingRemovesChains(t *testing.T) {
	src := `
func classify(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) {
			if (i % 3 == 0) { s = s + 2; } else { s = s + 1; }
		} else {
			s = s - 1;
		}
	}
	return s;
}
func main() { println(classify(12)); }`
	u := compileMode(t, src, true)
	f := findFunc(t, u, "classify")
	for i, in := range f.Base {
		if in.Op != OpJump && in.Op != OpJumpIfFalse {
			continue
		}
		tgt := in.A
		if int(tgt) < len(f.Base) && f.Base[tgt].Op == OpJump && f.Base[tgt].A != tgt && f.Base[tgt].A != in.A {
			t.Errorf("instr %d still jumps to a jump (target %d):\n%s", i, tgt, u.Disassemble())
		}
	}
	out, err := runUnit(u, "")
	if err != nil || out != "2\n" {
		t.Fatalf("run: out=%q err=%v", out, err)
	}
}

// equivalencePrograms is a battery of deterministic programs exercising the
// whole instruction set; each must behave identically with the optimizer on
// and off — same stdout, same error (or none).
var equivalencePrograms = []struct {
	name  string
	src   string
	stdin string
}{
	{name: "arith-and-strings", src: `
func main() {
	println(1 + 2 * 3, 10 / 4, 10.0 / 4, 7 % 3);
	println("a" + "b" + itoa(42));
	println(1 < 2, 2 <= 2, "x" == "x", !false, -(-5));
}`},
	{name: "globals-and-locals", src: `
var g = 2 + 3;
var h = g * 10;
func bump(by) { g = g + by; return g; }
func main() {
	println(g, h);
	println(bump(1), bump(2), g);
}`},
	{name: "loops-and-branches", src: `
func main() {
	var total = 0;
	for (var i = 0; i < 100; i = i + 1) {
		if (i % 3 == 0) { continue; }
		if (i > 90) { break; }
		total = total + i;
	}
	var n = 5;
	while (n > 0) { n = n - 1; total = total + 1; }
	println(total, n);
}`},
	{name: "recursion", src: `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { println(fib(18)); }`},
	{name: "arrays", src: `
func main() {
	var a = array(10);
	for (var i = 0; i < len(a); i = i + 1) { a[i] = i * i; }
	var sum = 0;
	for (var i = 0; i < len(a); i = i + 1) { sum = sum + a[i]; }
	println(sum, a[3], len(a));
}`},
	{name: "builtins", src: `
func main() {
	println(min(3, 7), max(3, 7), abs(-9));
	println(atoi("123") + 1, float(3), int(3.9));
	println(sqrt(16.0));
}`},
	{name: "readline", src: `
func main() {
	var line = readline();
	println("got " + line);
}`, stdin: "hello\n"},
	{name: "threads-deterministic", src: `
var counter = 0;
var m = mutex();
func worker(n) {
	for (var i = 0; i < n; i = i + 1) {
		lock(m);
		counter = counter + 1;
		unlock(m);
	}
}
func main() {
	var t1 = spawn(worker, 500);
	var t2 = spawn(worker, 500);
	join(t1);
	join(t2);
	println(counter);
}`},
	{name: "semaphores", src: `
var s = sem(0);
var ready = 0;
func producer() { ready = 42; sem_signal(s); }
func main() {
	var t = spawn(producer);
	sem_wait(s);
	println(ready);
	join(t);
}`},
	{name: "division-by-zero", src: `
func main() {
	var d = 0;
	println(10 / d);
}`},
	{name: "modulo-by-zero", src: `
func main() {
	var d = 0;
	println(10 % d);
}`},
	{name: "index-out-of-range", src: `
func main() {
	var a = array(3);
	println(a[5]);
}`},
	{name: "large-int-order", src: `
func main() {
	var a = 9007199254740993;
	var b = 9007199254740992;
	println(9007199254740993 > 9007199254740992, 9007199254740993 <= 9007199254740992);
	println(a > b, a >= b, a < b, a <= b, a == b, a != b, a > 9007199254740992);
	println(max(a, b), min(a, b), a - b, a + 0.0 > b);
}`},
	{name: "float-arith", src: `
func main() {
	var a = 7.5;
	var b = -2.0;
	var i = 3;
	var big = 1.0;
	for (var k = 0; k < 400; k = k + 1) { big = big * 10.0; }
	var nan = big - big;
	var nz = 0.0 * -1.0;
	var z = 0.0;
	println(a + b, a - b, a * b, a / b, i + b, i * a, a / i, b - i);
	println(a == b, a != b, a < b, a <= b, a > b, a >= b, i == a, i < a);
	println(a + 2.0, a - 2, a * 0.5, a / 4, i / 2.0, i - 0.5, 0.1 + 0.2);
	println(a == 7.5, a != 7, a < 8, a <= 7.5, a > 7, a >= 8.0, i > 2.5, i <= 3.0);
	println((a + 0.0) + (b * 1.0), (a * 1.0) - b, (a - 0.0) * b, (a + 0.0) / (b + 0.0), (i + 0) * (a + 0.0));
	println((a + 0.0) == b, (a + 0.0) != b, (a + 0.0) < b, (a + 0.0) <= b, (a + 0.0) > b, (a + 0.0) >= b);
	println(big, -big, big + 1, 1.0 / big, big * 0.0, nz, -0.0, nz == z, 1 / -big);
	println(nan, nan == nan, nan != nan, nan < 1.0, nan <= 1.0, nan > 1.0, nan >= 1.0, 1.0 > nan);
	println(a / z);
}`},
	{name: "float-modulo", src: `
func main() {
	var a = 7.5;
	println(7 % 2, a * 2);
	println(a % 2);
}`},
	{name: "type-error-mid-loop", src: `
func main() {
	var x = 0;
	for (var i = 0; i < 5; i = i + 1) {
		if (i == 3) { x = "oops"; }
		x = x + 1;
	}
}`},
}

func TestOptimizerEquivalence(t *testing.T) {
	for _, p := range equivalencePrograms {
		t.Run(p.name, func(t *testing.T) {
			outOff, errOff := runUnit(compileMode(t, p.src, false), p.stdin)
			outOn, errOn := runUnit(compileMode(t, p.src, true), p.stdin)
			if outOff != outOn {
				t.Errorf("stdout diverged:\n  off: %q\n  on:  %q", outOff, outOn)
			}
			if (errOff == nil) != (errOn == nil) {
				t.Fatalf("error presence diverged: off=%v on=%v", errOff, errOn)
			}
			if errOff != nil && errOff.Error() != errOn.Error() {
				t.Errorf("error diverged:\n  off: %s\n  on:  %s", errOff, errOn)
			}
		})
	}
}

// TestMaxStackAudit runs the equivalence battery and some pathological
// programs with the stack auditor on: any activation whose operand stack
// exceeds its compile-time MaxStack bound fails the run.
func TestMaxStackAudit(t *testing.T) {
	prev := SetStackAudit(true)
	defer SetStackAudit(prev)
	for _, p := range equivalencePrograms {
		for _, opt := range []bool{false, true} {
			out, err := runUnit(compileMode(t, p.src, opt), p.stdin)
			if err != nil && strings.Contains(err.Error(), "stack audit") {
				t.Fatalf("%s (optimize=%v): MaxStack bound violated: %v (out %q)", p.name, opt, err, out)
			}
		}
	}
	// Deep right-leaning expression: worst case for operand stack depth.
	var b strings.Builder
	b.WriteString("func main() { println(0")
	for i := 0; i < 200; i++ {
		b.WriteString(" + (1")
	}
	b.WriteString(strings.Repeat(")", 200))
	b.WriteString("); }")
	for _, opt := range []bool{false, true} {
		out, err := runUnit(compileMode(t, b.String(), opt), "")
		if err != nil {
			t.Fatalf("deep expression (optimize=%v): %v", opt, err)
		}
		if out != "200\n" {
			t.Fatalf("deep expression output = %q", out)
		}
	}
	// Call arguments built from nested calls stress the frame overlap.
	src := `
func add3(a, b, c) { return a + b + c; }
func main() { println(add3(add3(1, 2, 3), add3(4, add3(5, 6, 7), 8), 9)); }`
	out, err := runUnit(compileMode(t, src, true), "")
	if err != nil || out != "45\n" {
		t.Fatalf("nested calls: out=%q err=%v", out, err)
	}
}

func TestStepBudgetBatchingSingleThread(t *testing.T) {
	u, err := CompileSource(`func main() { while (true) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10_000
	m := NewMachine(u, MachineConfig{StepBudget: budget})
	if _, err := m.Run(); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("Run error = %v, want ErrStepBudget", err)
	}
	steps := m.Steps()
	if steps < budget {
		t.Fatalf("budget fired early: %d steps < budget %d", steps, budget)
	}
	if steps > budget+cancelCheckInterval {
		t.Fatalf("batching overshot: %d steps, want <= %d", steps, budget+cancelCheckInterval)
	}
}

func TestStepBudgetBatchingAcrossThreads(t *testing.T) {
	// Four spinning threads plus a spinning main: every thread batches
	// locally, so the total may overshoot by at most one interval per
	// running thread (plus one for the flush that crosses the line).
	u, err := CompileSource(`
func spin() { while (true) { } }
func main() {
	spawn(spin); spawn(spin); spawn(spin); spawn(spin);
	while (true) { }
}`)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100_000
	const threads = 5
	m := NewMachine(u, MachineConfig{StepBudget: budget})
	if _, err := m.Run(); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("Run error = %v, want ErrStepBudget", err)
	}
	steps := m.Steps()
	if steps < budget {
		t.Fatalf("budget fired early: %d steps < budget %d", steps, budget)
	}
	if limit := int64(budget + (threads+1)*cancelCheckInterval); steps > limit {
		t.Fatalf("batching overshot across threads: %d steps, want <= %d", steps, limit)
	}
}

func TestStepBudgetErrorMentionsBudget(t *testing.T) {
	u, err := CompileSource(`func main() { while (true) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(u, MachineConfig{StepBudget: 5_000})
	_, runErr := m.Run()
	if runErr == nil || !strings.Contains(runErr.Error(), "after 5000 instructions") {
		t.Fatalf("error = %v, want budget count in message", runErr)
	}
}
