// Package labs holds the seven hands-on assignments from the paper's course
// integration (Section III.B), each as a minic program in two variants: the
// buggy version students are given (or naturally write first) and the fixed
// version they are asked to produce (sources.go). Those programs are what
// the grader runs, and Run executes the one-rank ones directly, so the
// phenomenon each lab teaches is shown by the code students submit:
//
//	Lab 1 — Multicore: synchronization (shared counter loses updates)
//	Lab 2 — Multicore: TAS spin lock and cache coherence
//	Lab 3 — Multicore: UMA and NUMA access times
//	Lab 4 — Process/thread management (producer-consumer file copy, -1 sentinel)
//	Lab 5 — Basic synchronization (bank account deposit/withdraw)
//	Lab 6 — Deadlock (dining philosophers, ordered acquisition fix)
//	PA 3  — Bounded buffer with mutex locks and semaphores
//
// Labs 2 and 3 are also run on the memory-hierarchy simulator (RunLab2,
// RunLab3), which counts the cache invalidations and access cycles a minic
// program cannot observe.
package labs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/memsim"
	"repro/internal/minic"
)

// ID names a lab, in course order.
type ID int

// The seven assignments, in the order of the paper's Table 1.
const (
	Lab1Synchronization ID = iota
	Lab2SpinLock
	Lab3UMANUMA
	Lab4ProcessThread
	Lab5BankAccount
	Lab6Deadlock
	PA3BoundedBuffer
)

// Title returns the paper's name for the assignment.
func (id ID) Title() string {
	switch id {
	case Lab1Synchronization:
		return "Multicore Lab 1 - Synchronization with Java"
	case Lab2SpinLock:
		return "Multicore Lab 2 - Spin Lock and Cache Coherence"
	case Lab3UMANUMA:
		return "Multicore Lab 3 - UMA and NUMA Access"
	case Lab4ProcessThread:
		return "Lab for Process and Thread Management"
	case Lab5BankAccount:
		return "Lab for Basic Synchronization Methods"
	case Lab6Deadlock:
		return "Lab for Deadlock"
	case PA3BoundedBuffer:
		return "Programming Assignment 3 - Bounded Buffer Problem"
	default:
		return fmt.Sprintf("Lab(%d)", int(id))
	}
}

// All lists the assignments in course order.
func All() []ID {
	return []ID{
		Lab1Synchronization, Lab2SpinLock, Lab3UMANUMA, Lab4ProcessThread,
		Lab5BankAccount, Lab6Deadlock, PA3BoundedBuffer,
	}
}

// Result is a lab run's outcome.
type Result struct {
	Lab ID
	// Fixed reports which variant ran.
	Fixed bool
	// Correct reports whether the run met the lab's success criterion.
	Correct bool
	// Detail is a human-readable one-liner for reports: a minic program's
	// RESULT line, or the simulator's counts.
	Detail string
	// Output is everything a minic program printed; empty for the memsim
	// runners.
	Output string
}

// StepBudget bounds one run of a lab program: the grader's budget, which
// every lab source finishes well within.
const StepBudget = 500_000_000

// Run compiles the lab's minic source in the given variant and runs it as
// one rank with the given seed, which fixes its thread interleaving: the
// same lab, variant and seed print the same bytes on every run. Correct is
// whether the output contains ExpectedOutput(id). Lab 3 needs a 20-rank
// cluster job, so Run returns an error for it.
func Run(id ID, fixed bool, seed int64) (Result, error) {
	src := MinicSource(id, fixed)
	if src == "" {
		return Result{}, fmt.Errorf("labs: unknown lab %d", int(id))
	}
	if n := Ranks(id); n != 1 {
		return Result{}, fmt.Errorf("labs: %s needs a %d-rank cluster job", id.Title(), n)
	}
	u, err := minic.CompileSource(src)
	if err != nil {
		return Result{}, fmt.Errorf("labs: %s: %w", id.Title(), err)
	}
	var out bytes.Buffer
	m := minic.NewMachine(u, minic.MachineConfig{Out: &out, StepBudget: StepBudget, Seed: seed})
	_, err = m.Run()
	res := Result{Lab: id, Fixed: fixed, Output: out.String()}
	if err != nil {
		return res, fmt.Errorf("labs: %s: %w", id.Title(), err)
	}
	res.Correct = strings.Contains(res.Output, ExpectedOutput(id))
	if i := strings.LastIndex(res.Output, "RESULT "); i >= 0 {
		res.Detail, _, _ = strings.Cut(res.Output[i:], "\n")
	}
	return res, nil
}

// --- Lab 2: TAS spin lock and cache coherence ---------------------------------

// Lab2Result extends Result with the coherence statistics the lab studies.
type Lab2Result struct {
	Result
	Stats memsim.Stats
}

// The four memory accesses a Lab 2 core steps through, in order: take the
// lock with test-and-set (repeated while it is held), read the counter,
// write the incremented value, release the lock. Without the lock a core
// only reads and writes.
const (
	lab2TAS = iota
	lab2Read
	lab2Write
	lab2Release
)

// RunLab2 runs `threads` simulated cores on the memory simulator, each
// performing `increments` increments of a shared counter. With useLock the
// increments are protected by a TAS spin lock built from the simulator's
// test-and-set instruction: the count is exact, and the stats show the
// invalidation traffic TAS spinning generates. Without it updates are lost.
//
// One goroutine steps the cores: each step performs one memory access of
// one unfinished core, drawn by a generator seeded with seed, so the counter
// and the stats are a function of the arguments.
func RunLab2(threads, increments int, useLock bool, seed int64) (Lab2Result, error) {
	sys, err := memsim.New(memsim.Config{Cores: threads, Domains: 1})
	if err != nil {
		return Lab2Result{}, err
	}
	const lockAddr, counterAddr = 0x100, 0x200
	first := lab2Read
	if useLock {
		first = lab2TAS
	}
	type core struct {
		next, done int
		read       uint64 // the counter value this core last read
	}
	cores := make([]core, threads)
	var running []int // the cores with increments left
	for c := range cores {
		cores[c].next = first
		if increments > 0 {
			running = append(running, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(running) > 0 {
		k := rng.Intn(len(running))
		id := running[k]
		c := &cores[id]
		switch c.next {
		case lab2TAS:
			if old, _ := sys.TestAndSet(id, lockAddr); old == 0 {
				c.next = lab2Read
			}
		case lab2Read:
			c.read, _ = sys.Read(id, counterAddr)
			c.next = lab2Write
		case lab2Write:
			sys.Write(id, counterAddr, c.read+1)
			if useLock {
				c.next = lab2Release
			} else {
				c.next = lab2Read
				c.done++
			}
		case lab2Release:
			sys.Write(id, lockAddr, 0)
			c.next = lab2TAS
			c.done++
		}
		if c.done == increments {
			running[k] = running[len(running)-1]
			running = running[:len(running)-1]
		}
	}
	got := int64(sys.MemoryValue(counterAddr))
	expected := int64(threads * increments)
	st := sys.Stats()
	return Lab2Result{
		Result: Result{
			Lab: Lab2SpinLock, Fixed: useLock,
			Correct: got == expected,
			Detail:  fmt.Sprintf("counter=%d want=%d invalidations=%d", got, expected, st.Invalidations),
		},
		Stats: st,
	}, nil
}

// --- Lab 3: UMA and NUMA access times -----------------------------------------

// Lab3Result reports the measured access-cycle averages.
type Lab3Result struct {
	Result
	// LocalReadCycles and RemoteReadCycles are mean cycles per read.
	LocalReadCycles  float64
	RemoteReadCycles float64
	// Ratio is remote/local — the NUMA factor the lab asks students to
	// measure.
	Ratio float64
}

// RunLab3 measures local vs remote memory read costs on a 2-domain NUMA
// machine, touching a fresh address each iteration so every access pays the
// memory (not cache) cost. The lab's observation holds when remote > local.
func RunLab3(accesses int) (Lab3Result, error) {
	sys, err := memsim.New(memsim.Config{Cores: 2, Domains: 2})
	if err != nil {
		return Lab3Result{}, err
	}
	if accesses <= 0 {
		accesses = 1000
	}
	var localTotal, remoteTotal int64
	for i := 0; i < accesses; i++ {
		addr := uint64(0x1000 + i)
		if err := sys.Place(addr, 0); err != nil {
			return Lab3Result{}, err
		}
		_, c := sys.Read(0, addr) // core 0 → domain 0: local
		localTotal += c
		addr2 := uint64(0x100000 + i)
		if err := sys.Place(addr2, 0); err != nil {
			return Lab3Result{}, err
		}
		_, c2 := sys.Read(1, addr2) // core 1 → domain 1: remote
		remoteTotal += c2
	}
	local := float64(localTotal) / float64(accesses)
	remote := float64(remoteTotal) / float64(accesses)
	res := Lab3Result{
		Result: Result{
			Lab: Lab3UMANUMA, Fixed: true,
			Correct: remote > local,
			Detail:  fmt.Sprintf("local=%.1f remote=%.1f cycles/read", local, remote),
		},
		LocalReadCycles:  local,
		RemoteReadCycles: remote,
	}
	if local > 0 {
		res.Ratio = remote / local
	}
	return res, nil
}
