package scheduler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/minic"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// drainGrace bounds how long a cancelled job's ranks get to observe their
// dead context before runArtifact abandons them. The context halts the VM
// loop, wakes threads parked on a minic mutex, semaphore or join, and
// unblocks MPI waits; only a rank stuck in a hook that ignores the context
// outlives it.
const drainGrace = 2 * time.Second

// commHooks adapts an mpi.Comm to the minic VM's MPIHooks interface, so a
// program's rank()/send()/recv()/barrier() builtins talk to the simulated
// grid. Each rank's VM owns one instance, shared by the rank's threads.
type commHooks struct {
	c *mpi.Comm
}

func (h *commHooks) Rank() int { return h.c.Rank() }
func (h *commHooks) Size() int { return h.c.Size() }

func (h *commHooks) Send(dst int, data []byte) error { return h.c.Send(dst, 0, data) }

// Recv gives each receive its own bytes: two threads of a rank can wait in
// recv at once, since a thread gives up the run token while it waits.
func (h *commHooks) Recv(src int) ([]byte, error) { return h.c.Recv(src, 0) }

func (h *commHooks) Barrier() error { return h.c.Barrier() }

func (h *commHooks) Bcast(root int, data []byte) ([]byte, error) { return h.c.Bcast(root, data) }

func mpiOp(op string) (mpi.Op, error) {
	switch op {
	case "sum":
		return mpi.OpSum, nil
	case "max":
		return mpi.OpMax, nil
	case "min":
		return mpi.OpMin, nil
	default:
		return 0, fmt.Errorf("scheduler: unknown reduce op %q", op)
	}
}

func (h *commHooks) AllReduce(op string, v float64) (float64, error) {
	mop, err := mpiOp(op)
	if err != nil {
		return 0, err
	}
	return h.c.AllReduce(mop, v)
}

func (h *commHooks) AllReduceFloats(op string, v []float64) ([]float64, error) {
	mop, err := mpiOp(op)
	if err != nil {
		return nil, err
	}
	return h.c.AllReduceFloats(mop, v)
}

func (h *commHooks) GatherFloats(root int, v []float64) ([]float64, error) {
	return h.c.GatherFloats(root, v)
}

func (h *commHooks) ScatterFloats(root int, v []float64) ([]float64, error) {
	return h.c.ScatterFloats(root, v)
}

func (h *commHooks) ElapsedNS() int64 { return h.c.Elapsed().Nanoseconds() }

func (h *commHooks) Tick(ns int64) { h.c.Tick(time.Duration(ns)) }

// rankWriter prefixes each output line with the rank, so the merged job
// stdout stays attributable; sequential jobs write through unprefixed. It is
// line-buffered: the prefix is emitted once per line regardless of how many
// Write calls compose the line.
type rankWriter struct {
	rank  int
	multi bool
	dst   io.Writer

	mu          sync.Mutex
	atLineStart bool
}

func newRankWriter(rank int, multi bool, dst io.Writer) *rankWriter {
	return &rankWriter{rank: rank, multi: multi, dst: dst, atLineStart: true}
}

func (w *rankWriter) Write(p []byte) (int, error) {
	if !w.multi {
		return w.dst.Write(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	prefix := fmt.Sprintf("[rank %d] ", w.rank)
	var sb strings.Builder
	for _, b := range p {
		if w.atLineStart {
			sb.WriteString(prefix)
			w.atLineStart = false
		}
		sb.WriteByte(b)
		if b == '\n' {
			w.atLineStart = true
		}
	}
	if _, err := io.WriteString(w.dst, sb.String()); err != nil {
		return 0, err
	}
	return len(p), nil
}

// runArtifact executes a compiled unit as an MPI job over the given nodes
// under ctx: each rank's VM checks the context in its interpreter loop and
// the MPI world aborts blocked sends/receives when it dies. It blocks until
// every rank finishes, or until the ranks of a halted run have had
// drainGrace to unwind, and returns the run context's cause: the first rank
// error, or why the run was halted (cancelled, out of wall time or out of
// the owner's step budget). A run that ends without one returns nil.
func (s *Scheduler) runArtifact(ctx context.Context, job *jobs.Job, unit *minic.Unit, nodes []topology.NodeID) error {
	ranks := job.Spec.Ranks
	// The run's one context. Its first cause ends the run: a user cancel,
	// the wall-time timer, or the first rank to fail, as MPI's default
	// MPI_ERRORS_ARE_FATAL ends a job, so peers blocked in MPI abort
	// instead of holding the nodes until the wall time.
	runCtx, cancelRun := context.WithCancelCause(ctx)
	defer cancelRun(nil)
	wall := time.AfterFunc(s.wallTime, func() { cancelRun(errWallTime) })
	defer wall.Stop()
	world, err := mpi.New(s.cluster.Grid(), nodes, mpi.Options{
		Algorithm:    s.collective,
		BufferDepth:  s.mpiDepth,
		SendOverhead: s.mpiOver,
		Ctx:          runCtx,
	})
	if err != nil {
		return err
	}

	budget := s.stepBudget
	if job.Spec.StepBudget > 0 {
		budget = job.Spec.StepBudget
	}
	// When the owner has a tenancy step budget, cap each rank's VM budget so
	// the job cannot overrun what the user has left. userCapped marks that a
	// rank's ErrStepBudget means the *user's* budget, not the job's.
	userCapped := false
	if s.tenant != nil {
		if rem, capped := s.tenant.StepsRemaining(job.Spec.Owner); capped {
			perRank := rem / int64(ranks)
			if perRank < 1 {
				perRank = 1
			}
			// budget <= 0 means "no job-level budget" — the user cap still
			// applies there, not only when it undercuts an existing budget.
			if budget <= 0 || perRank < budget {
				budget = perRank
				userCapped = true
			}
		}
	}

	machines := make([]*minic.Machine, ranks)
	if s.tenant != nil {
		// Charge actual consumption no matter how the run ends. Steps() is
		// an atomic read, so abandoned (still-draining) ranks are safe to
		// sample; any instructions they retire after this point go unbilled,
		// which errs in the user's favor.
		defer func() {
			var total int64
			for _, m := range machines {
				if m != nil {
					total += m.Steps()
				}
			}
			s.tenant.ChargeSteps(job.Spec.Owner, total)
		}()
	}

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		comm, err := world.Comm(r)
		if err != nil {
			return err
		}
		var stdin io.Reader = strings.NewReader("")
		if r == 0 {
			stdin = job.Stdin // interactive input goes to rank 0
		}
		m := minic.NewMachine(unit, minic.MachineConfig{
			Out:        newRankWriter(r, ranks > 1, job.Stdout),
			In:         stdin,
			Hooks:      &commHooks{c: comm},
			StepBudget: budget,
			Seed:       int64(r) + 1,
			Ctx:        runCtx,
		})
		machines[r] = m
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, err := m.Run()
			if userCapped && errors.Is(err, minic.ErrStepBudget) {
				err = errStepBudget
			}
			if err != nil {
				cancelRun(fmt.Errorf("rank %d: %w", r, err))
			}
		}(r)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		// Closing only after every rank has finished keeps late sends off
		// closed channels.
		world.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-runCtx.Done():
		// The dead context halts each rank's interpreter loop, wakes its
		// parked threads and aborts blocked MPI calls; closing stdin
		// unblocks a rank waiting in readline(). Give the ranks a short
		// grace to unwind, then abandon them. A rank whose threads deadlock
		// on each other does not wait for a cancel: its VM fails it with
		// minic.ErrDeadlock at once.
		job.Stdin.Close()
		select {
		case <-done:
		case <-time.After(drainGrace):
			s.log.Warnf("job %s: ranks still draining after cancellation", job.ID)
		}
	}
	// The peers' own errors (an aborted recv, a cancelled loop) came after
	// the cause and are not reported.
	return context.Cause(runCtx)
}
