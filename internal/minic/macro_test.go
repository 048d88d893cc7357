package minic

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// baseUnit returns a copy of u whose bodies dispatch their Base, one step
// per instruction: the reference a macro-op unit must match.
func baseUnit(u *Unit) *Unit {
	plain := func(f *CompiledFunc) *CompiledFunc {
		g := *f
		g.Code = g.Base
		return &g
	}
	cp := *u
	cp.Funcs = make([]*CompiledFunc, len(u.Funcs))
	for i, f := range u.Funcs {
		cp.Funcs[i] = plain(f)
	}
	if u.Init != nil {
		cp.Init = plain(u.Init)
	}
	return &cp
}

// racyHistSrc has three threads update a shared array element and a global
// with no lock and no yield, so what it prints depends on exactly where
// each quantum ends, inside the 8-instruction a[k] = a[k] op f window and
// the 4-instruction g = g op c window.
const racyHistSrc = `
var hist = array(2);
var counter = 0;
func worker(n, k) {
	var h = hist;
	var one = 1;
	for (var i = 0; i < n; i = i + 1) {
		h[k] = h[k] + one;
		counter = counter + 1;
	}
}
func main() {
	var t1 = spawn(worker, 15000, 0);
	var t2 = spawn(worker, 15000, 0);
	var t3 = spawn(worker, 15000, 1);
	join(t1);
	join(t2);
	join(t3);
	println("RESULT counter", counter, hist[0], hist[1]);
}`

// racyFloatSrc races two threads over a float accumulator and a histogram,
// the shape of the mpi-lab kernel, and prints from inside the loop, so
// blocking builtins flush the step batch mid-window sequence.
const racyFloatSrc = `
var sum = 0.0;
func worker(n, id) {
	var bins = array(8);
	var h = 1.0 / float(n);
	for (var i = 0; i < n; i = i + 1) {
		var x = (float(i) + 0.5) * h;
		var f = 4.0 / (1.0 + x * x);
		sum = sum + 0.5;
		var k = i * 8 / n;
		bins[k] = bins[k] + f;
		if (i % 2500 == 0) { println(id, i, sum); }
	}
	println("bins", id, bins);
}
func main() {
	var t1 = spawn(worker, 6000, 1);
	var t2 = spawn(worker, 6000, 2);
	join(t1);
	join(t2);
	println("RESULT sum", sum);
}`

// windowErrorPrograms each fail inside a window of the macro-op op, most
// after running the same window cleanly, so the macro-op's decline, or its
// own error at the window's last instruction, leads to the error, its line
// and its step count.
var windowErrorPrograms = []struct {
	name string
	op   OpCode
	src  string
}{
	{"setindex-op-out-of-range", OpSetIndexOp, `
func main() {
	var a = array(3);
	var one = 1;
	for (var k = 0; k < 4; k = k + 1) { a[k] = a[k] + one; }
}`},
	{"setindex-op-on-string", OpSetIndexOp, `
func main() {
	var s = "abc";
	var t = "x";
	var k = 1;
	s[k] = s[k] + t;
}`},
	{"setindex-op-type-error", OpSetIndexOp, `
func main() {
	var a = array(2);
	var f = 1.5;
	for (var k = 0; k < 2; k = k + 1) { a[k] = a[k] + f; f = "x"; }
}`},
	{"storeg-op-type-error", OpStoreGlobalOp, `
var g = 0;
func main() {
	for (var i = 0; i < 3; i = i + 1) { g = g + 1; if (i == 1) { g = "s"; } }
}`},
	{"store-division-by-zero", OpLoadLocal2BinStore, `
func main() {
	var x = 10;
	for (var y = 3; y > -1; y = y - 1) { var q = x / y; println(q); }
}`},
	{"store-const-modulo-float", OpLoadLocalConstBinStore, `
func main() {
	var x = 7;
	for (var i = 0; i < 3; i = i + 1) { var q = x % 4; x = 7.5; }
}`},
	{"jump-cannot-order", OpLoadLocal2BinJump, `
func main() {
	var x = 1;
	var s = 2;
	for (var i = 0; i < 3; i = i + 1) { if (x < s) { s = "a"; } }
}`},
	{"jump-condition-not-bool", OpLoadLocal2BinJump, `
func main() {
	var x = 0;
	var y = 1;
	if (x + y) { }
}`},
	{"const-jump-cannot-order", OpLoadLocalConstBinJump, `
func main() {
	var x = 1;
	for (var i = 0; i < 3; i = i + 1) { if (x < 2) { x = "a"; } }
}`},
	{"bin-jump-cannot-order", OpBinJump, `
func main() {
	var t = "";
	var i = 0;
	while (t < itoa(i)) { i = i + 1; if (i == 3) { t = 5; } }
}`},
	{"bin-store-division-by-zero", OpBinStore, `
func main() {
	var x = 6;
	for (var y = 2; y > -1; y = y - 1) { var q = x * 2 / (y * 1); println(q); }
}`},
	{"index-locals-out-of-range", OpIndexLocals, `
func main() {
	var a = array(3);
	var s = 0;
	for (var i = 0; i < 4; i = i + 1) { s = s + a[i]; }
}`},
	{"load-bin-type-error", OpLoadLocalBin, `
func main() {
	var x = 2;
	for (var i = 0; i < 3; i = i + 1) { println(1.5 * x); x = "s"; }
}`},
	{"const-bin-type-error", OpConstBin, `
func main() {
	var s = "a";
	var t = "b";
	println(s + t + 1);
}`},
	{"load-callb-error", OpLoadLocalCallB, `
func main() {
	var x = 4.0;
	for (var i = 0; i < 3; i = i + 1) { println(sqrt(x)); x = -1.0; }
}`},
	{"loadg-callb-error", OpLoadGlobalCallB, `
var g = 3;
func main() { lock(g); }`},
}

// TestMacroOpsMatchBase runs every program twice at each seed and step
// budget, once dispatching its macro-ops and once its Base, and requires
// the same stdout, error text, result and Steps(). The budgets stop runs in
// the middle of macro-op windows, and the racy programs print what the
// quantum ends decide.
func TestMacroOpsMatchBase(t *testing.T) {
	type program struct{ name, src, stdin string }
	var progs []program
	for _, p := range equivalencePrograms {
		progs = append(progs, program{p.name, p.src, p.stdin})
	}
	for _, p := range windowErrorPrograms {
		progs = append(progs, program{name: p.name, src: p.src})
		u := compileMode(t, p.src, true)
		if !strings.Contains(u.Disassemble(), " "+p.op.String()+" ") {
			t.Errorf("%s: no %s in\n%s", p.name, p.op, u.Disassemble())
		}
	}
	progs = append(progs,
		program{name: "bench-tight-loop", src: tightLoopSrc},
		program{name: "bench-float-loop", src: floatLoopSrc},
		program{name: "bench-float-kernel", src: floatKernelSrc},
		program{name: "bench-lab1", src: lab1FixedSrc},
		program{name: "bench-recursive-call", src: recursiveCallSrc},
		program{name: "bench-thread-fan-out", src: threadFanOutSrc},
		program{name: "bench-array-sweep", src: arraySweepSrc},
		program{name: "bench-strings", src: stringsSrc},
		program{name: "pi-step", src: piStepSrc},
		program{name: "racy-hist", src: racyHistSrc},
		program{name: "racy-float", src: racyFloatSrc},
	)
	budgets := []int64{0, 5_000, 12_345, 40_000, 77_777}
	run := func(u *Unit, p program, seed, budget int64) string {
		var out bytes.Buffer
		m := NewMachine(u, MachineConfig{Out: &out, In: strings.NewReader(p.stdin), Seed: seed, StepBudget: budget})
		res, err := m.Run()
		return fmt.Sprintf("stdout %q\nresult %s\nerr %v\nsteps %d", out.String(), res, err, m.Steps())
	}
	macros := 0
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			u := compileMode(t, p.src, true)
			ref := baseUnit(u)
			for _, f := range u.Funcs {
				for _, in := range f.Code {
					if in.W > 1 {
						macros++
					}
				}
			}
			for seed := int64(1); seed <= 10; seed++ {
				for _, budget := range budgets {
					got, want := run(u, p, seed, budget), run(ref, p, seed, budget)
					if got != want {
						t.Errorf("seed %d, budget %d:\nmacro-ops:\n%s\nBase:\n%s", seed, budget, got, want)
					}
				}
			}
		})
	}
	if macros == 0 {
		t.Fatal("no program compiled to a macro-op")
	}
}

// piStepSrc is one step of the mpi-lab job's kernel (portalbench's pi
// program) on one rank: rank() and size() stand at 3 of 16.
const piStepSrc = `
func main() {
	var n = 160000;
	var steps = 10;
	var bins = 64;
	var r = 3;
	var p = 16;
	var h = 1.0 / float(n);
	var per = n / steps;
	var hist = array(bins);
	var local = 0.0;
	var base = 0;
	for (var i = base + r; i < base + per; i = i + p) {
		var x = (float(i) + 0.5) * h;
		var f = 4.0 / (1.0 + x * x);
		local = local + f;
		var k = (i - base) * bins / per;
		hist[k] = hist[k] + f;
	}
	return local * h;
}`

// TestMacroOpsCoverThePiLoop pins the dispatch count of the mpi-lab kernel's
// inner loop: its 36 instructions of Base run in 20 dispatches.
func TestMacroOpsCoverThePiLoop(t *testing.T) {
	u := compileMode(t, piStepSrc, true)
	f := findFunc(t, u, "main")
	// The inner loop is the code between the last backward jump's target
	// and that jump.
	end := -1
	for i, in := range f.Base {
		if in.Op == OpJump && int(in.A) < i {
			end = i
		}
	}
	if end < 0 {
		t.Fatalf("no loop in main:\n%s", u.Disassemble())
	}
	start := int(f.Base[end].A)
	dispatches := 0
	for pc := start; pc <= end; pc += int(f.Code[pc].W) {
		dispatches++
	}
	if n := end - start + 1; n != 36 || dispatches != 20 {
		t.Fatalf("inner loop: %d instructions in %d dispatches, want 36 in 20:\n%s", n, dispatches, u.Disassemble())
	}
}

// TestDisableOptimizeHasNoMacroOps: without the optimizer every body
// dispatches its Base.
func TestDisableOptimizeHasNoMacroOps(t *testing.T) {
	u := compileMode(t, floatKernelSrc, false)
	for _, f := range u.Funcs {
		for i, in := range f.Code {
			if in.W != 1 || in != f.Base[i] {
				t.Fatalf("%s pc %d: %+v, Base has %+v", f.Name, i, in, f.Base[i])
			}
		}
	}
}

// TestInstrIsTwentyBytes pins the instruction layout: a body's Base and its
// macro-op Code together take the memory one slice of the former 40-byte
// instructions took.
func TestInstrIsTwentyBytes(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 20 {
		t.Fatalf("Instr is %d bytes, want 20", n)
	}
}
