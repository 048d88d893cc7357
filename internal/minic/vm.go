package minic

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrStepBudget is returned when a program exceeds its instruction budget —
// the portal's defence against runaway student programs wedging a node.
var ErrStepBudget = errors.New("minic: step budget exceeded")

// ErrCancelled is returned when the machine's context dies mid-execution —
// how a cancelled (or timed-out) job halts its VM ranks.
var ErrCancelled = errors.New("minic: execution cancelled")

// MPIHooks connects a running program to its communication world. Sequential
// executions use NoMPI; cluster jobs get an adapter over an mpi.Comm.
type MPIHooks interface {
	// Rank and Size identify this process in the job.
	Rank() int
	Size() int
	// Send and Recv are point-to-point with implicit tag 0.
	Send(dst int, data []byte) error
	Recv(src int) ([]byte, error)
	// Barrier blocks until all ranks arrive.
	Barrier() error
	// Bcast distributes root's payload; all ranks receive it.
	Bcast(root int, data []byte) ([]byte, error)
	// AllReduce combines v across ranks with op "sum", "max" or "min".
	AllReduce(op string, v float64) (float64, error)
	// AllReduceFloats combines whole vectors element-wise in one collective,
	// so array reductions cost one message per edge, not one per element.
	AllReduceFloats(op string, v []float64) ([]float64, error)
	// GatherFloats concatenates each rank's vector at root in rank order;
	// other ranks receive nil.
	GatherFloats(root int, v []float64) ([]float64, error)
	// ScatterFloats splits root's vector into equal chunks, one per rank.
	ScatterFloats(root int, v []float64) ([]float64, error)
	// ElapsedNS is this rank's virtual clock, for the timing labs.
	ElapsedNS() int64
	// Tick models local computation of d nanoseconds.
	Tick(ns int64)
}

// NoMPI is the sequential stub: rank 0 of 1, no communication.
type NoMPI struct{}

// Rank returns 0.
func (NoMPI) Rank() int { return 0 }

// Size returns 1.
func (NoMPI) Size() int { return 1 }

// Send fails: a 1-rank world has no peers.
func (NoMPI) Send(int, []byte) error { return errors.New("minic: send in a sequential program") }

// Recv fails: a 1-rank world has no peers.
func (NoMPI) Recv(int) ([]byte, error) {
	return nil, errors.New("minic: recv in a sequential program")
}

// Barrier is a no-op.
func (NoMPI) Barrier() error { return nil }

// Bcast returns the payload unchanged.
func (NoMPI) Bcast(_ int, data []byte) ([]byte, error) { return data, nil }

// AllReduce returns v unchanged.
func (NoMPI) AllReduce(_ string, v float64) (float64, error) { return v, nil }

// AllReduceFloats returns v unchanged.
func (NoMPI) AllReduceFloats(_ string, v []float64) ([]float64, error) { return v, nil }

// GatherFloats returns v: rank 0 gathering from itself.
func (NoMPI) GatherFloats(_ int, v []float64) ([]float64, error) { return v, nil }

// ScatterFloats returns v: the single rank's chunk is the whole vector.
func (NoMPI) ScatterFloats(_ int, v []float64) ([]float64, error) { return v, nil }

// ElapsedNS returns 0.
func (NoMPI) ElapsedNS() int64 { return 0 }

// Tick is a no-op.
func (NoMPI) Tick(int64) {}

// MachineConfig configures an execution.
type MachineConfig struct {
	// Out receives print output; nil discards it.
	Out io.Writer
	// In supplies readline(); nil means empty input.
	In io.Reader
	// Hooks is the MPI connection; nil means NoMPI.
	Hooks MPIHooks
	// StepBudget bounds total interpreted instructions across all threads;
	// 0 means the default of 50 million.
	StepBudget int64
	// Seed seeds the deterministic random() builtin and, separately, the
	// picker that chooses which thread runs next: the same source and seed
	// give the same interleaving.
	Seed int64
	// Ctx halts execution with ErrCancelled when it dies. The interpreter
	// checks it every cancelCheckInterval instructions, so the per-opcode
	// fast path stays a single atomic add. nil means never cancelled.
	Ctx context.Context
}

// Machine executes one compiled Unit as one process (one MPI rank). Its
// threads take turns holding a run token (see sched), so only the holder
// touches globals, arrays, output and the random() generator.
type Machine struct {
	unit  *Unit
	hooks MPIHooks
	ctx   context.Context

	out   io.Writer
	inMu  sync.Mutex // readline reads without the token
	inSrc io.Reader
	in    *bufio.Reader // wraps inSrc on the first readline()

	globals []Value

	steps  atomic.Int64
	budget int64
	seed   int64
	rng    *rand.Rand // seeded on the first random()

	sched    sched
	main     Thread
	threadID int64
	threads  sync.WaitGroup

	// errMu guards firstErr: threads that a cancel or a deadlock wakes
	// unwind without the token.
	errMu    sync.Mutex
	firstErr error
}

// NewMachine prepares a machine for the unit.
func NewMachine(u *Unit, cfg MachineConfig) *Machine {
	if cfg.Hooks == nil {
		cfg.Hooks = NoMPI{}
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.In == nil {
		cfg.In = strings.NewReader("")
	}
	if cfg.StepBudget <= 0 {
		cfg.StepBudget = 50_000_000
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	return &Machine{
		unit:    u,
		hooks:   cfg.Hooks,
		ctx:     cfg.Ctx,
		out:     cfg.Out,
		inSrc:   cfg.In,
		globals: make([]Value, len(u.Globals)),
		budget:  cfg.StepBudget,
		seed:    cfg.Seed,
	}
}

// Steps reports instructions executed so far.
func (m *Machine) Steps() int64 { return m.steps.Load() }

func (m *Machine) recordErr(err error) {
	m.errMu.Lock()
	if m.firstErr == nil {
		m.firstErr = err
	}
	m.errMu.Unlock()
}

// Run executes global initializers then main, waits for all spawned threads,
// and returns main's result and the first error from any thread. A machine
// whose context is already dead returns ErrCancelled without executing.
func (m *Machine) Run() (Value, error) {
	if m.ctx.Err() != nil {
		return UnitValue(), ErrCancelled
	}
	m.main = Thread{wake: m.main.wake}
	m.sched.reset(&m.main, m.seed)
	res := UnitValue()
	err := m.runInit()
	if err == nil {
		res, err = m.callFunction(&m.main, m.unit.Funcs[m.unit.EntryPoint], nil)
	}
	if err != nil {
		m.recordErr(err)
	}
	m.exit(&m.main)
	m.threads.Wait()
	m.errMu.Lock()
	first := m.firstErr
	m.errMu.Unlock()
	return res, first
}

func (m *Machine) runInit() error {
	if len(m.unit.GlobalInit) == 0 {
		return nil
	}
	f := &CompiledFunc{Name: "<init>", Code: m.unit.GlobalInit, MaxStack: m.unit.InitMaxStack}
	_, err := m.callFunction(&m.main, f, nil)
	return err
}

// maxCallDepth bounds minic recursion so a runaway recursive program fails
// with a diagnostic instead of exhausting the Go stack.
const maxCallDepth = 10_000

// cancelCheckInterval is how many interpreted instructions a thread may
// execute between flushes of its local step counter into the machine-wide
// atomic — which is also where the context and budget are checked, and
// where its quantum ends and the run token may pass to another thread. The
// per-opcode fast path is therefore a register increment and compare; the
// budget bound and cancellation latency hold to within one interval.
const cancelCheckInterval = 1 << 12

// frameArena is one goroutine's reusable execution state: a slab of Value
// slots that activation frames (locals + operand stack) are carved out of,
// and the local step counter batched into Machine.steps. Arenas are pooled
// across Run and spawn, so the steady-state interpreter path allocates
// nothing.
type frameArena struct {
	arena   []Value
	pending int64 // interpreted instructions not yet flushed to Machine.steps
}

const initialArenaSize = 256

var frameArenaPool = sync.Pool{
	New: func() interface{} { return &frameArena{arena: make([]Value, initialArenaSize)} },
}

func getFrameArena() *frameArena { return frameArenaPool.Get().(*frameArena) }

func putFrameArena(st *frameArena) {
	// Zero the slab so pooled arenas don't pin arrays, threads or
	// semaphores from a finished program until their next reuse.
	clear(st.arena)
	st.pending = 0
	frameArenaPool.Put(st)
}

// grow resizes the arena to at least need slots, geometrically. Frames
// reference the arena through indices, so relocation is safe as long as
// callers re-slice after any nested call that might have grown it.
func (st *frameArena) grow(need int) {
	size := len(st.arena) * 2
	for size < need {
		size *= 2
	}
	next := make([]Value, size)
	copy(next, st.arena)
	st.arena = next
}

// flushSteps publishes the goroutine's batched step count and performs the
// budget and cancellation checks. It is called when a batch fills, before
// builtins that can block on I/O or a peer rank, when a thread parks or
// yields the token to another, and at top-level return — so Steps() lags
// true progress by at most one batch.
func (m *Machine) flushSteps(st *frameArena) error {
	if st.pending == 0 {
		return nil
	}
	n := m.steps.Add(st.pending)
	st.pending = 0
	if n > m.budget {
		return fmt.Errorf("%w after %d instructions", ErrStepBudget, m.budget)
	}
	if m.ctx.Err() != nil {
		return ErrCancelled
	}
	return nil
}

// stackAudit, when enabled (tests only), makes exec verify at every
// instruction that the live operand-stack depth never exceeds the compiler's
// MaxStack bound. The audited path allocates headroom beyond MaxStack so a
// violation is reported as a diagnostic instead of a slice bounds panic.
var stackAudit atomic.Bool

// SetStackAudit toggles the stack-depth audit mode and reports the previous
// setting. It exists for the MaxStack correctness tests.
func SetStackAudit(on bool) bool { return stackAudit.Swap(on) }

// stackAuditHeadroom is the extra slack an audited frame gets so an
// underestimated MaxStack is caught by the audit, not by a bounds panic.
const stackAuditHeadroom = 64

// callFunction runs f with args as thread t, on a pooled frame arena in the
// current goroutine. It is the entry point for Run and for spawned threads;
// calls between minic functions stay inside exec and share the caller's
// arena.
func (m *Machine) callFunction(t *Thread, f *CompiledFunc, args []Value) (Value, error) {
	st := getFrameArena()
	if len(args) > len(st.arena) {
		st.grow(len(args))
	}
	copy(st.arena, args)
	t.st = st
	v, err := m.exec(st, f, 0, 0)
	if ferr := m.flushSteps(st); err == nil {
		err = ferr
	}
	t.st = nil
	putFrameArena(st)
	return v, err
}

// exec interprets one activation of f whose frame starts at arena index
// base; arena[base:base+NumParams] already hold the arguments. The frame
// layout is [locals | operand stack], and a callee's frame overlaps the
// caller's stack top so arguments become parameter slots without copying.
func (m *Machine) exec(st *frameArena, f *CompiledFunc, base, depth int) (Value, error) {
	if depth > maxCallDepth {
		return UnitValue(), fmt.Errorf("minic: call depth exceeds %d (runaway recursion?)", maxCallDepth)
	}
	audit := stackAudit.Load()
	frameTop := base + f.NumLocals + f.MaxStack
	if audit {
		frameTop += stackAuditHeadroom
	}
	if frameTop > len(st.arena) {
		st.grow(frameTop)
	}
	locals := st.arena[base : base+f.NumLocals : base+f.NumLocals]
	stack := st.arena[base+f.NumLocals : frameTop : frameTop]
	// Arguments arrive in the parameter slots; the remaining locals must be
	// cleared because the arena is reused across activations.
	for i := f.NumParams; i < f.NumLocals; i++ {
		locals[i] = Value{}
	}
	sp := 0
	code := f.Code
	consts := m.unit.Consts
	for pc := 0; pc < len(code); pc++ {
		st.pending++
		if st.pending >= cancelCheckInterval {
			if err := m.endQuantum(st); err != nil {
				return UnitValue(), err
			}
		}
		in := &code[pc]
		if audit && sp > f.MaxStack {
			return UnitValue(), fmt.Errorf("minic: internal: %s pc=%d operand stack depth %d exceeds MaxStack %d",
				f.Name, pc, sp, f.MaxStack)
		}
		switch in.Op {
		case OpConst:
			stack[sp] = consts[in.A]
			sp++
		case OpLoadLocal:
			stack[sp] = locals[in.A]
			sp++
		case OpStoreLocal:
			sp--
			locals[in.A] = stack[sp]
		case OpLoadGlobal:
			stack[sp] = m.globals[in.A]
			sp++
		case OpStoreGlobal:
			sp--
			m.globals[in.A] = stack[sp]
		case OpJump:
			pc = in.A - 1
		case OpJumpIfFalse:
			sp--
			c := stack[sp]
			if c.Kind != KindBool {
				return UnitValue(), errAt(in.Line, 0, "condition is %s, not bool", c.Kind)
			}
			if c.I == 0 {
				pc = in.A - 1
			}
		case OpCall:
			// The callee's frame starts where its arguments already sit on
			// our operand stack, so no argument copying happens; only the
			// arena pointer can move (growth), hence the re-slice below.
			calleeBase := base + f.NumLocals + sp - in.B
			v, err := m.exec(st, m.unit.Funcs[in.A], calleeBase, depth+1)
			if err != nil {
				return UnitValue(), err
			}
			locals = st.arena[base : base+f.NumLocals : base+f.NumLocals]
			stack = st.arena[base+f.NumLocals : frameTop : frameTop]
			sp -= in.B
			stack[sp] = v
			sp++
		case OpCallBuiltin:
			// A builtin that can block on I/O or a peer rank (print, recv,
			// ...) flushes first, so a stalled rank's steps are visible and
			// cancellation is observed; the rest run inside the batch.
			b := &builtins[in.A]
			if b.blocks {
				if err := m.flushSteps(st); err != nil {
					return UnitValue(), err
				}
			}
			v, err := b.fn(m, stack[sp-in.B:sp], in.Line)
			if err != nil {
				return UnitValue(), err
			}
			sp -= in.B
			stack[sp] = v
			sp++
		case OpSpawn:
			// The spawned thread outlives this frame: copy the arguments out
			// of the shared arena. This is the one argument copy left.
			args := make([]Value, in.B)
			copy(args, stack[sp-in.B:sp])
			sp -= in.B
			stack[sp] = m.spawn(in.A, args)
			sp++
		case OpReturn:
			return stack[sp-1], nil
		case OpReturnNil:
			return UnitValue(), nil
		case OpPop:
			sp--
		case OpBinary:
			if fastBinary(in.A, &stack[sp-2], &stack[sp-1], &stack[sp-2]) {
				sp--
				break
			}
			v, err := applyBinary(in.A, stack[sp-2], stack[sp-1], in.Line)
			if err != nil {
				return UnitValue(), err
			}
			sp--
			stack[sp-1] = v
		case OpUnary:
			v, err := applyUnary(in.A, stack[sp-1], in.Line)
			if err != nil {
				return UnitValue(), err
			}
			stack[sp-1] = v
		case OpIndex:
			v, err := m.indexGet(&stack[sp-2], &stack[sp-1], in.Line)
			if err != nil {
				return UnitValue(), err
			}
			sp--
			stack[sp-1] = v
		case OpSetIndex:
			if err := m.indexSet(&stack[sp-3], &stack[sp-2], &stack[sp-1], in.Line); err != nil {
				return UnitValue(), err
			}
			sp -= 3
		case OpLoadLocalConstBin:
			if fastBinary(in.C, &locals[in.A], &consts[in.B], &stack[sp]) {
				sp++
				break
			}
			v, err := applyBinary(in.C, locals[in.A], consts[in.B], in.Line)
			if err != nil {
				return UnitValue(), err
			}
			stack[sp] = v
			sp++
		case OpLoadLocal2Bin:
			if fastBinary(in.C, &locals[in.A], &locals[in.B], &stack[sp]) {
				sp++
				break
			}
			v, err := applyBinary(in.C, locals[in.A], locals[in.B], in.Line)
			if err != nil {
				return UnitValue(), err
			}
			stack[sp] = v
			sp++
		case OpConstStoreLocal:
			locals[in.B] = consts[in.A]
		default:
			return UnitValue(), errAt(in.Line, 0, "internal: bad opcode %d", in.Op)
		}
	}
	return UnitValue(), nil
}

func (m *Machine) indexGet(arr, idx *Value, line int) (Value, error) {
	if idx.Kind != KindInt {
		return Value{}, errAt(line, 0, "array index is %s, not int", idx.Kind)
	}
	switch arr.Kind {
	case KindArray:
		elems := arr.Arr().Elems
		if idx.I < 0 || idx.I >= int64(len(elems)) {
			return Value{}, errAt(line, 0, "index %d out of range [0,%d)", idx.I, len(elems))
		}
		return elems[idx.I], nil
	case KindString:
		s := arr.Str()
		if idx.I < 0 || idx.I >= int64(len(s)) {
			return Value{}, errAt(line, 0, "index %d out of range [0,%d)", idx.I, len(s))
		}
		return StringValue(s[idx.I : idx.I+1]), nil
	default:
		return Value{}, errAt(line, 0, "cannot index a %s", arr.Kind)
	}
}

func (m *Machine) indexSet(arr, idx, val *Value, line int) error {
	if arr.Kind != KindArray {
		return errAt(line, 0, "cannot assign into a %s", arr.Kind)
	}
	if idx.Kind != KindInt {
		return errAt(line, 0, "array index is %s, not int", idx.Kind)
	}
	elems := arr.Arr().Elems
	if idx.I < 0 || idx.I >= int64(len(elems)) {
		return errAt(line, 0, "index %d out of range [0,%d)", idx.I, len(elems))
	}
	elems[idx.I] = *val
	return nil
}

// --- builtins ----------------------------------------------------------------

type builtinSpec struct {
	name  string
	arity int // -1 means variadic
	fn    func(m *Machine, args []Value, line int) (Value, error)
	// blocks marks a builtin that can wait on I/O or a peer rank; the
	// interpreter flushes its step batch before calling one. The thread
	// builtins flush for themselves, only when they park or hand the run
	// token to another thread.
	blocks bool
}

var builtins []builtinSpec
var builtinIndex map[string]int

func isBuiltin(name string) bool {
	_, ok := builtinIndex[name]
	return ok || name == "spawn"
}

func init() {
	builtins = []builtinSpec{
		{"print", -1, biPrint, true},
		{"println", -1, biPrintln, true},
		{"len", 1, biLen, false},
		{"array", 1, biArray, false},
		{"atoi", 1, biAtoi, false},
		{"itoa", 1, biItoa, false},
		{"int", 1, biInt, false},
		{"float", 1, biFloat, false},
		{"abs", 1, biAbs, false},
		{"min", 2, biMin, false},
		{"max", 2, biMax, false},
		{"sqrt", 1, biSqrt, false},
		{"readline", 0, biReadline, true},
		{"random", 1, biRandom, false},
		{"assert", 2, biAssert, false},
		{"rank", 0, biRank, false},
		{"size", 0, biSize, false},
		{"send", 2, biSend, true},
		{"recv", 1, biRecv, true},
		{"barrier", 0, biBarrier, true},
		{"bcast", 2, biBcast, true},
		{"reduce_sum", 1, biReduceSum, true},
		{"reduce_max", 1, biReduceMax, true},
		{"reduce_min", 1, biReduceMin, true},
		{"gather", 2, biGather, true},
		{"scatter", 2, biScatter, true},
		{"time_ns", 0, biTimeNS, false},
		{"work_ns", 1, biWorkNS, false},
		{"mutex", 0, biMutex, false},
		{"lock", 1, biLock, false},
		{"unlock", 1, biUnlock, false},
		{"sem", 1, biSem, false},
		{"sem_wait", 1, biSemWait, false},
		{"sem_signal", 1, biSemSignal, false},
		{"sem_trywait", 1, biSemTryWait, false},
		{"join", 1, biJoin, false},
		{"yield", 0, biYield, false},
	}
	builtinIndex = make(map[string]int, len(builtins))
	for i, b := range builtins {
		builtinIndex[b.name] = i
	}
}

// printArgs writes the whole line with one Write, so lines printed by
// concurrent ranks into a shared job stream never interleave.
func (m *Machine) printArgs(args []Value, nl bool) {
	var sb strings.Builder
	for i, a := range args {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(a.String())
	}
	if nl {
		sb.WriteByte('\n')
	}
	io.WriteString(m.out, sb.String())
}

func biPrint(m *Machine, args []Value, _ int) (Value, error) {
	m.printArgs(args, false)
	return UnitValue(), nil
}

func biPrintln(m *Machine, args []Value, _ int) (Value, error) {
	m.printArgs(args, true)
	return UnitValue(), nil
}

func biLen(m *Machine, args []Value, line int) (Value, error) {
	switch args[0].Kind {
	case KindString:
		return IntValue(args[0].I), nil // a string's I is its length
	case KindArray:
		return IntValue(int64(len(args[0].Arr().Elems))), nil
	default:
		return Value{}, errAt(line, 0, "len of %s", args[0].Kind)
	}
}

func biArray(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt || args[0].I < 0 {
		return Value{}, errAt(line, 0, "array size must be a non-negative int")
	}
	if args[0].I > 1<<22 {
		return Value{}, errAt(line, 0, "array size %d exceeds limit", args[0].I)
	}
	elems := make([]Value, args[0].I)
	for i := range elems {
		elems[i] = IntValue(0)
	}
	return arrayValue(elems), nil
}

func biAtoi(_ *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindString {
		return Value{}, errAt(line, 0, "atoi needs a string")
	}
	s := args[0].Str()
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return Value{}, errAt(line, 0, "atoi(%q): not a number", s)
	}
	return IntValue(n), nil
}

func biItoa(_ *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt {
		return Value{}, errAt(line, 0, "itoa needs an int")
	}
	return StringValue(strconv.FormatInt(args[0].I, 10)), nil
}

func biInt(_ *Machine, args []Value, line int) (Value, error) {
	switch args[0].Kind {
	case KindInt:
		return args[0], nil
	case KindFloat:
		return IntValue(int64(args[0].Float())), nil
	case KindBool:
		return IntValue(args[0].I), nil
	default:
		return Value{}, errAt(line, 0, "int(%s)", args[0].Kind)
	}
}

func biFloat(_ *Machine, args []Value, line int) (Value, error) {
	f, ok := args[0].numeric()
	if !ok {
		return Value{}, errAt(line, 0, "float(%s)", args[0].Kind)
	}
	return FloatValue(f), nil
}

func biAbs(_ *Machine, args []Value, line int) (Value, error) {
	switch args[0].Kind {
	case KindInt:
		if args[0].I < 0 {
			return IntValue(-args[0].I), nil
		}
		return args[0], nil
	case KindFloat:
		return FloatValue(math.Abs(args[0].Float())), nil
	default:
		return Value{}, errAt(line, 0, "abs(%s)", args[0].Kind)
	}
}

func biMin(_ *Machine, args []Value, line int) (Value, error) {
	return compareAndPick(args, line, true)
}

func biMax(_ *Machine, args []Value, line int) (Value, error) {
	return compareAndPick(args, line, false)
}

func compareAndPick(args []Value, line int, wantMin bool) (Value, error) {
	var less, greater bool
	if args[0].Kind == KindInt && args[1].Kind == KindInt {
		// Ordered as ints: above 2^53 float64 would merge neighbours.
		less, greater = args[0].I < args[1].I, args[0].I > args[1].I
	} else {
		af, aok := args[0].numeric()
		bf, bok := args[1].numeric()
		if !aok || !bok {
			return Value{}, errAt(line, 0, "min/max need numeric operands")
		}
		less, greater = af < bf, af > bf
	}
	pickFirst := less
	if !wantMin {
		pickFirst = greater
	}
	if pickFirst {
		return args[0], nil
	}
	return args[1], nil
}

func biSqrt(_ *Machine, args []Value, line int) (Value, error) {
	f, ok := args[0].numeric()
	if !ok || f < 0 {
		return Value{}, errAt(line, 0, "sqrt needs a non-negative number")
	}
	return FloatValue(math.Sqrt(f)), nil
}

func biReadline(m *Machine, _ []Value, _ int) (Value, error) {
	t := m.leave()
	m.inMu.Lock()
	if m.in == nil {
		m.in = bufio.NewReader(m.inSrc)
	}
	line, err := m.in.ReadString('\n')
	m.inMu.Unlock()
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil && line == "" {
		return StringValue(""), nil // EOF → empty string
	}
	return StringValue(strings.TrimRight(line, "\n")), nil
}

func biRandom(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt || args[0].I <= 0 {
		return Value{}, errAt(line, 0, "random needs a positive int bound")
	}
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
	}
	return IntValue(m.rng.Int63n(args[0].I)), nil
}

func biAssert(_ *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindBool {
		return Value{}, errAt(line, 0, "assert condition must be bool")
	}
	if args[0].I == 0 {
		return Value{}, errAt(line, 0, "assertion failed: %s", args[1].String())
	}
	return UnitValue(), nil
}

func biRank(m *Machine, _ []Value, _ int) (Value, error) {
	return IntValue(int64(m.hooks.Rank())), nil
}

func biSize(m *Machine, _ []Value, _ int) (Value, error) {
	return IntValue(int64(m.hooks.Size())), nil
}

// encodeForSend serializes any sendable value. Its caller holds the run
// token, so an array is encoded straight from its elements.
func encodeForSend(v Value) ([]byte, error) {
	if v.Kind == KindArray {
		return encodeArray(v.Arr().Elems)
	}
	return encodeValue(v)
}

// The message-passing builtins release the run token only around the hook
// call, after they have copied what they send: leave before it, enter after.

func biSend(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt {
		return Value{}, errAt(line, 0, "send destination must be an int rank")
	}
	data, err := encodeForSend(args[1])
	if err != nil {
		return Value{}, errAt(line, 0, "%v", err)
	}
	t := m.leave()
	err = m.hooks.Send(int(args[0].I), data)
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil {
		return Value{}, errAt(line, 0, "send: %v", err)
	}
	return UnitValue(), nil
}

func biRecv(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt {
		return Value{}, errAt(line, 0, "recv source must be an int rank")
	}
	t := m.leave()
	data, err := m.hooks.Recv(int(args[0].I))
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil {
		return Value{}, errAt(line, 0, "recv: %v", err)
	}
	v, err := decodeValue(data)
	if err != nil {
		return Value{}, errAt(line, 0, "%v", err)
	}
	return v, nil
}

func biBarrier(m *Machine, _ []Value, line int) (Value, error) {
	t := m.leave()
	err := m.hooks.Barrier()
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil {
		return Value{}, errAt(line, 0, "barrier: %v", err)
	}
	return UnitValue(), nil
}

func biBcast(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt {
		return Value{}, errAt(line, 0, "bcast root must be an int rank")
	}
	data, err := encodeForSend(args[1])
	if err != nil {
		return Value{}, errAt(line, 0, "%v", err)
	}
	t := m.leave()
	out, err := m.hooks.Bcast(int(args[0].I), data)
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil {
		return Value{}, errAt(line, 0, "bcast: %v", err)
	}
	v, err := decodeValue(out)
	if err != nil {
		return Value{}, errAt(line, 0, "%v", err)
	}
	return v, nil
}

func reduceWith(m *Machine, op string, args []Value, line int) (Value, error) {
	if args[0].Kind == KindArray {
		// Whole-array reduction travels as one vector collective instead of
		// one message per element. The copy keeps the element kinds that
		// the result follows, whatever other threads store meanwhile.
		elems := append([]Value(nil), args[0].Arr().Elems...)
		vec := make([]float64, len(elems))
		for i, e := range elems {
			f, ok := e.numeric()
			if !ok {
				return Value{}, errAt(line, 0, "reduce needs numeric array elements, got %s", e.Kind)
			}
			vec[i] = f
		}
		t := m.leave()
		out, err := m.hooks.AllReduceFloats(op, vec)
		if terr := m.enter(t); terr != nil {
			return Value{}, terr
		}
		if err != nil {
			return Value{}, errAt(line, 0, "reduce: %v", err)
		}
		res := make([]Value, len(elems))
		for i := range res {
			// Element result kind follows the local element, like the
			// scalar rule below.
			if elems[i].Kind == KindInt {
				res[i] = IntValue(int64(out[i]))
			} else {
				res[i] = FloatValue(out[i])
			}
		}
		return arrayValue(res), nil
	}
	f, ok := args[0].numeric()
	if !ok {
		return Value{}, errAt(line, 0, "reduce needs a numeric value")
	}
	t := m.leave()
	out, err := m.hooks.AllReduce(op, f)
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil {
		return Value{}, errAt(line, 0, "reduce: %v", err)
	}
	if args[0].Kind == KindInt {
		return IntValue(int64(out)), nil
	}
	return FloatValue(out), nil
}

// floatVec flattens a numeric scalar or array argument into a float vector
// for the vector collectives.
func floatVec(v Value, line int) ([]float64, error) {
	if v.Kind == KindArray {
		elems := v.Arr().Elems
		vec := make([]float64, len(elems))
		for i, e := range elems {
			f, ok := e.numeric()
			if !ok {
				return nil, errAt(line, 0, "collective needs numeric array elements, got %s", e.Kind)
			}
			vec[i] = f
		}
		return vec, nil
	}
	f, ok := v.numeric()
	if !ok {
		return nil, errAt(line, 0, "collective needs a numeric value, got %s", v.Kind)
	}
	return []float64{f}, nil
}

func floatArray(vec []float64) Value {
	elems := make([]Value, len(vec))
	for i, f := range vec {
		elems[i] = FloatValue(f)
	}
	return arrayValue(elems)
}

func biGather(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt {
		return Value{}, errAt(line, 0, "gather root must be an int rank")
	}
	vec, err := floatVec(args[1], line)
	if err != nil {
		return Value{}, err
	}
	t := m.leave()
	out, err := m.hooks.GatherFloats(int(args[0].I), vec)
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil {
		return Value{}, errAt(line, 0, "gather: %v", err)
	}
	// The root gets every rank's contribution concatenated in rank order as
	// a float array; other ranks get an empty array.
	return floatArray(out), nil
}

func biScatter(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt {
		return Value{}, errAt(line, 0, "scatter root must be an int rank")
	}
	var vec []float64
	if m.hooks.Rank() == int(args[0].I) {
		var err error
		vec, err = floatVec(args[1], line)
		if err != nil {
			return Value{}, err
		}
	}
	t := m.leave()
	out, err := m.hooks.ScatterFloats(int(args[0].I), vec)
	if terr := m.enter(t); terr != nil {
		return Value{}, terr
	}
	if err != nil {
		return Value{}, errAt(line, 0, "scatter: %v", err)
	}
	// Every rank gets its chunk of the root's array as a float array.
	return floatArray(out), nil
}

func biReduceSum(m *Machine, args []Value, line int) (Value, error) {
	return reduceWith(m, "sum", args, line)
}

func biReduceMax(m *Machine, args []Value, line int) (Value, error) {
	return reduceWith(m, "max", args, line)
}

func biReduceMin(m *Machine, args []Value, line int) (Value, error) {
	return reduceWith(m, "min", args, line)
}

func biTimeNS(m *Machine, _ []Value, _ int) (Value, error) {
	return IntValue(m.hooks.ElapsedNS()), nil
}

func biWorkNS(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt || args[0].I < 0 {
		return Value{}, errAt(line, 0, "work_ns needs a non-negative int")
	}
	m.hooks.Tick(args[0].I)
	return UnitValue(), nil
}
