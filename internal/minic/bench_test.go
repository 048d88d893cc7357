package minic

import (
	"testing"
)

// The VM microbenchmarks behind `make bench-vm`. Each compiles once and
// measures execution only; BenchmarkVMSteadyState reuses one Machine across
// iterations to show the pooled-frame steady state allocates nothing, which
// TestVMSteadyStateZeroAlloc gates.

func compileBench(b *testing.B, src string) *Unit {
	b.Helper()
	u, err := CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

const tightLoopSrc = `
func main() {
	var total = 0;
	for (var i = 0; i < 10000; i = i + 1) {
		total = total + i;
	}
	return total;
}`

// floatLoopSrc is the midpoint rule for pi without the histogram: float
// arithmetic and float(i) only, so its steady state allocates nothing.
const floatLoopSrc = `
func main() {
	var n = 10000;
	var h = 1.0 / float(n);
	var sum = 0.0;
	for (var i = 0; i < n; i = i + 1) {
		var x = (float(i) + 0.5) * h;
		sum = sum + 4.0 / (1.0 + x * x);
	}
	return sum * h;
}`

// floatKernelSrc is one rank's share of the mpi-lab job: the midpoint rule
// for pi with a 64-bin histogram of its terms, so float arithmetic, a
// non-blocking builtin and array updates make up the inner loop.
const floatKernelSrc = `
func main() {
	var n = 20000;
	var bins = 64;
	var h = 1.0 / float(n);
	var hist = array(bins);
	for (var k = 0; k < bins; k = k + 1) { hist[k] = 0.0; }
	var local = 0.0;
	for (var i = 0; i < n; i = i + 1) {
		var x = (float(i) + 0.5) * h;
		var f = 4.0 / (1.0 + x * x);
		local = local + f;
		var k = i * bins / n;
		hist[k] = hist[k] + f;
	}
	return local * h;
}`

// lab1FixedSrc mirrors the fixed Multicore Lab 1 source the classroom
// workload submits (labs.MinicSource; importing package labs here would be
// an import cycle): two threads and a mutex, 20,000 increments in all.
const lab1FixedSrc = `
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
	var t1 = spawn(worker, 10000);
	var t2 = spawn(worker, 10000);
	join(t1);
	join(t2);
	println("RESULT counter", counter);
}`

// recursiveCallSrc is call-bound: fib(20), int only.
const recursiveCallSrc = `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { return fib(20); }`

// threadFanOutSrc spawns eight threads that each sum a loop and add the
// sum to a global under a mutex.
const threadFanOutSrc = `
var counter = 0;
var m = mutex();
func worker(n) {
	var local = 0;
	for (var i = 0; i < n; i = i + 1) { local = local + i; }
	lock(m);
	counter = counter + local;
	unlock(m);
}
func main() {
	var t0 = spawn(worker, 1000);
	var t1 = spawn(worker, 1000);
	var t2 = spawn(worker, 1000);
	var t3 = spawn(worker, 1000);
	var t4 = spawn(worker, 1000);
	var t5 = spawn(worker, 1000);
	var t6 = spawn(worker, 1000);
	var t7 = spawn(worker, 1000);
	join(t0); join(t1); join(t2); join(t3);
	join(t4); join(t5); join(t6); join(t7);
	return counter;
}`

// arraySweepSrc fills a 1000-element array and sums it ten times.
const arraySweepSrc = `
func main() {
	var a = array(1000);
	for (var i = 0; i < len(a); i = i + 1) { a[i] = i * 2; }
	var sum = 0;
	for (var pass = 0; pass < 10; pass = pass + 1) {
		for (var i = 0; i < len(a); i = i + 1) { sum = sum + a[i]; }
	}
	return sum;
}`

// stringsSrc is a loop of string comparisons and short concatenations, so
// the macro-ops see non-numeric operands and complete through applyBinary.
const stringsSrc = `
func main() {
	var s = "";
	var n = 0;
	for (var i = 0; i < 2000; i = i + 1) {
		var t = "ab" + itoa(i % 10);
		if (t == "ab3") { n = n + 1; }
		if (t < "ab5") { s = t + "x"; } else { s = s + t; }
		if (len(s) > 40) { s = ""; }
	}
	return n;
}`

func BenchmarkVMTightLoop(b *testing.B) {
	u := compileBench(b, tightLoopSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(u, MachineConfig{StepBudget: 1 << 40})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMSteadyState(b *testing.B) {
	// One Machine, many runs: after the first iteration warms the frame
	// pool, the interpreter itself allocates nothing (0 allocs/op).
	u := compileBench(b, tightLoopSrc)
	m := NewMachine(u, MachineConfig{StepBudget: 1 << 60})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestVMSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"int", tightLoopSrc},
		{"float", floatLoopSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := CompileSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(u, MachineConfig{StepBudget: 1 << 60})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Run allocates %v times per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkVMFloatKernel reports ns/step, the interpreter's cost per
// instruction on float code, next to the per-run ns/op.
func BenchmarkVMFloatKernel(b *testing.B) {
	u := compileBench(b, floatKernelSrc)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(u, MachineConfig{StepBudget: 1 << 40})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkVMLab1 runs Lab 1's fixed source, the program behind most of
// the classroom workload's VM time, and reports ns/step next to ns/op.
func BenchmarkVMLab1(b *testing.B) {
	u := compileBench(b, lab1FixedSrc)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(u, MachineConfig{StepBudget: 1 << 40, Seed: 1})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

func BenchmarkVMRecursiveCall(b *testing.B) {
	u := compileBench(b, recursiveCallSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(u, MachineConfig{StepBudget: 1 << 40})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMThreadFanOut(b *testing.B) {
	u := compileBench(b, threadFanOutSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(u, MachineConfig{StepBudget: 1 << 40})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMArraySweep(b *testing.B) {
	u := compileBench(b, arraySweepSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(u, MachineConfig{StepBudget: 1 << 40})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMStrings runs string comparisons and concatenations through the
// macro-op shapes, which decline to applyBinary for non-numeric operands.
func BenchmarkVMStrings(b *testing.B) {
	u := compileBench(b, stringsSrc)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(u, MachineConfig{StepBudget: 1 << 40})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}
