package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/labs"
)

// okSource is the one-line job of the dashboard's writes and the flood.
const okSource = "func main() {\n\tprintln(\"ok\");\n}\n"

// lab1Source is Lab 1 with the mutex fix: one rank, two threads, about
// 7 ms of VM time, ending in "RESULT counter 20000".
func lab1Source() string { return labs.MinicSource(labs.Lab1Synchronization, true) }

// editedLab1 is a student's edit of Lab 1: the program is unchanged but the
// source differs, so the toolchain's content-addressed cache misses.
func editedLab1(op int) string {
	return lab1Source() + "// edit " + strconv.Itoa(op) + "\n"
}

// The mpi-lab program: midpoint-rule pi over piIntervals intervals in
// piSteps steps, 16 ranks. Every step each rank sums its cyclic share of
// the step's slice, all-reduces a 64-bin histogram of its terms (one vector
// collective) and its scalar partial, and every other step prints a
// progress line; rank 0 prints the result.
const (
	piIntervals = 160000
	piSteps     = 10
	piRanks     = 16
	piBins      = 64
)

var piSource = fmt.Sprintf(`func main() {
	var n = %d;
	var steps = %d;
	var bins = %d;
	var r = rank();
	var p = size();
	var h = 1.0 / float(n);
	var per = n / steps;
	var pi = 0.0;
	for (var s = 0; s < steps; s = s + 1) {
		var hist = array(bins);
		for (var k = 0; k < bins; k = k + 1) {
			hist[k] = 0.0;
		}
		var local = 0.0;
		var base = s * per;
		for (var i = base + r; i < base + per; i = i + p) {
			var x = (float(i) + 0.5) * h;
			var f = 4.0 / (1.0 + x * x);
			local = local + f;
			var k = (i - base) * bins / per;
			hist[k] = hist[k] + f;
		}
		var all = reduce_sum(hist);
		var total = reduce_sum(local);
		var hs = 0.0;
		for (var k = 0; k < bins; k = k + 1) {
			hs = hs + all[k];
		}
		assert(abs(hs - total) < 0.000001, "histogram disagrees with total");
		pi = pi + total * h;
		if (s %% 2 == 0) {
			println("step", s, "rank", r, "partial", local * h);
		}
	}
	if (r == 0) {
		println("RESULT pi", pi);
	}
}
`, piIntervals, piSteps, piBins)

// referencePi is the benchmark's own float64 midpoint sum, which the
// job's RESULT line must match to 1e-9.
func referencePi() float64 {
	h := 1.0 / float64(piIntervals)
	sum := 0.0
	for i := 0; i < piIntervals; i++ {
		x := (float64(i) + 0.5) * h
		sum += 4.0 / (1.0 + x*x)
	}
	return sum * h
}

var piWant = referencePi()

// The correctness checks, one per workload. Each takes the job's final
// state, its output and the bytes its watcher was told were dropped, and
// returns nil only when the job did what the workload asked of it.

func checkLab1(state string, out []byte, dropped int64) error {
	if err := checkCommon(state, dropped); err != nil {
		return err
	}
	if !bytes.Contains(out, []byte("RESULT counter 20000\n")) {
		return fmt.Errorf("output lacks %q: %q", "RESULT counter 20000", clip(out))
	}
	return nil
}

func checkPi(state string, out []byte, dropped int64) error {
	if err := checkCommon(state, dropped); err != nil {
		return err
	}
	const prefix = "RESULT pi "
	i := bytes.Index(out, []byte(prefix))
	if i < 0 {
		return fmt.Errorf("output lacks a RESULT pi line: %q", clip(out))
	}
	line := out[i+len(prefix):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	got, err := strconv.ParseFloat(strings.TrimSpace(string(line)), 64)
	if err != nil {
		return fmt.Errorf("RESULT pi %q: %v", line, err)
	}
	if math.Abs(got-piWant) > 1e-9 {
		return fmt.Errorf("RESULT pi %v, want %v within 1e-9", got, piWant)
	}
	return nil
}

func checkOK(state string, out []byte, dropped int64) error {
	if err := checkCommon(state, dropped); err != nil {
		return err
	}
	if string(out) != "ok\n" {
		return fmt.Errorf("output %q, want %q", clip(out), "ok\n")
	}
	return nil
}

func checkCommon(state string, dropped int64) error {
	if state != "succeeded" {
		return fmt.Errorf("job ended %q, want succeeded", state)
	}
	if dropped != 0 {
		return fmt.Errorf("%d output bytes dropped", dropped)
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}
