package minic

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestCancelHaltsInterpreter(t *testing.T) {
	for _, tc := range spinLoops {
		t.Run(tc.name, func(t *testing.T) {
			u, err := CompileSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			m := NewMachine(u, MachineConfig{StepBudget: 1 << 40, Ctx: ctx})
			done := make(chan error, 1)
			go func() {
				_, err := m.Run()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("Run error = %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("interpreter did not halt after cancel")
			}
		})
	}
}

func TestPreCancelledContextStopsRun(t *testing.T) {
	u, err := CompileSource(`func main() { while (true) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewMachine(u, MachineConfig{StepBudget: 1 << 40, Ctx: ctx}).Run(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run error = %v", err)
	}
}
