package labs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/minic"
)

// TestLabSourcesEquivalentUnderOptimization runs every fixed lab program
// (except Lab 3, which needs the 20-rank cluster) with the bytecode optimizer
// off and on. The fixed labs are written to produce their expected line
// regardless of thread interleaving, so both modes must succeed and both must
// contain the lab's expected output.
func TestLabSourcesEquivalentUnderOptimization(t *testing.T) {
	for _, id := range All() {
		if id == Lab3UMANUMA {
			continue
		}
		src := MinicSource(id, true)
		want := ExpectedOutput(id)
		for _, optimize := range []bool{false, true} {
			u, err := minic.CompileSourceWithOptions(src, minic.CompileOptions{DisableOptimize: !optimize})
			if err != nil {
				t.Fatalf("lab %v optimize=%v: compile: %v", id, optimize, err)
			}
			var out bytes.Buffer
			m := minic.NewMachine(u, minic.MachineConfig{Out: &out, StepBudget: StepBudget, Seed: 1})
			if _, err := m.Run(); err != nil {
				t.Fatalf("lab %v optimize=%v: run: %v (output %q)", id, optimize, err, out.String())
			}
			if !strings.Contains(out.String(), want) {
				t.Errorf("lab %v optimize=%v: output %q missing %q", id, optimize, out.String(), want)
			}
		}
	}
}

// TestLabSourcesCompileOptimizedAndAudit compiles every lab variant (buggy and
// fixed) with the optimizer on and executes the single-threaded-safe ones
// under the VM's stack auditor, checking the compile-time MaxStack bounds on
// real course code.
func TestLabSourcesCompileOptimizedAndAudit(t *testing.T) {
	prev := minic.SetStackAudit(true)
	defer minic.SetStackAudit(prev)
	for _, id := range All() {
		if id == Lab3UMANUMA {
			continue
		}
		// Only the fixed sources terminate deterministically without the
		// cluster; buggy ones may deadlock (Lab 6) so just compile those.
		for _, fixed := range []bool{false, true} {
			u, err := minic.CompileSourceWithOptions(MinicSource(id, fixed), minic.CompileOptions{})
			if err != nil {
				t.Fatalf("lab %v fixed=%v: compile: %v", id, fixed, err)
			}
			if !fixed {
				continue
			}
			var out bytes.Buffer
			m := minic.NewMachine(u, minic.MachineConfig{Out: &out, StepBudget: StepBudget, Seed: 1})
			if _, err := m.Run(); err != nil {
				t.Fatalf("lab %v stack audit run: %v (output %q)", id, err, out.String())
			}
		}
	}
}
