package minic

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

// ErrDeadlock is returned when every live thread of a machine is parked on a
// mutex, a semaphore or a join, and no thread is runnable or waiting outside
// the machine, so nothing can ever wake them.
var ErrDeadlock = errors.New("minic: deadlock: every thread is blocked on a mutex, semaphore or join")

// Thread is a minic thread. Each one is a goroutine, but it executes only
// while it holds its machine's run token, so one thread of a rank runs at a
// time and the machine's globals and arrays need no lock.
type Thread struct {
	id   int64
	st   *frameArena // the thread's arena; park flushes its step batch
	wake chan bool   // true hands the thread the token; false is a deadlock

	finished bool
	joiners  waitQueue
	result   Value
	err      error
}

// Mutex is a minic mutex. Only the token holder reads or changes it.
type Mutex struct {
	held    bool
	waiters waitQueue
}

// Semaphore is a minic counting semaphore. Only the token holder reads or
// changes it.
type Semaphore struct {
	count   int64
	waiters waitQueue
}

// waitQueue holds the threads parked on one mutex, semaphore or join, in the
// order they parked.
type waitQueue struct{ q []*Thread }

func (w *waitQueue) push(t *Thread) { w.q = append(w.q, t) }

func (w *waitQueue) pop() *Thread {
	if len(w.q) == 0 {
		return nil
	}
	t := w.q[0]
	copy(w.q, w.q[1:])
	w.q[len(w.q)-1] = nil
	w.q = w.q[:len(w.q)-1]
	return t
}

// sched is a machine's run token and the threads that wait for it.
//
// The token moves at a handoff: at the end of a quantum (the step-batch
// flush every cancelCheckInterval instructions), at yield(), when its holder
// parks on a mutex, a semaphore or a join, and when its holder ends. The
// next holder is drawn from the runnable threads by a picker seeded from
// MachineConfig.Seed, so a program whose threads never wait outside the
// machine replays the same interleaving from the same seed.
type sched struct {
	mu sync.Mutex
	// holder is the thread holding the token, nil when it is free. It is
	// written under mu by the holder or by a thread taking a free token, so
	// the holder may read it without mu.
	holder   *Thread
	runnable []*Thread // ready for the token, in the order they became ready
	outside  int       // threads in an MPI call or readline, without the token
	parked   []*Thread // threads parked on a mutex, semaphore or join
	pick     uint64    // the picker's state; separate from random()'s generator
}

// reset makes main the token holder of a fresh run.
func (s *sched) reset(main *Thread, seed int64) {
	s.holder = main
	clear(s.runnable)
	s.runnable = s.runnable[:0]
	clear(s.parked)
	s.parked = s.parked[:0]
	s.outside = 0
	s.pick = uint64(seed)
}

// draw returns a picker value in [0, n): one splitmix64 step.
func (s *sched) draw(n int) int {
	s.pick += 0x9e3779b97f4a7c15
	z := s.pick
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// giveLocked hands the token to t and wakes it.
func (s *sched) giveLocked(t *Thread) {
	s.holder = t
	wakeUp(t, true)
}

// wakeUp sends token on t's wake channel without blocking: a thread waits
// for one wake-up at a time, and one that already unwound on a dead context
// never reads its last.
func wakeUp(t *Thread, token bool) {
	select {
	case t.wake <- token:
	default:
	}
}

// takeLocked removes and returns runnable[i], keeping the others in order.
func (s *sched) takeLocked(i int) *Thread {
	t := s.runnable[i]
	copy(s.runnable[i:], s.runnable[i+1:])
	s.runnable[len(s.runnable)-1] = nil
	s.runnable = s.runnable[:len(s.runnable)-1]
	return t
}

// releaseLocked frees the token and hands it to a runnable thread drawn by
// the picker. With none runnable and none waiting outside the machine, no
// thread can ever ready the parked ones: each wakes with ErrDeadlock.
func (s *sched) releaseLocked() {
	s.holder = nil
	if n := len(s.runnable); n > 0 {
		s.giveLocked(s.takeLocked(s.draw(n)))
		return
	}
	if s.outside > 0 {
		return
	}
	for i, t := range s.parked {
		wakeUp(t, false)
		s.parked[i] = nil
	}
	s.parked = s.parked[:0]
}

// readyLocked moves a parked thread to the runnable set.
func (s *sched) readyLocked(t *Thread) {
	for i, p := range s.parked {
		if p == t {
			last := len(s.parked) - 1
			s.parked[i] = s.parked[last]
			s.parked[last] = nil
			s.parked = s.parked[:last]
			break
		}
	}
	s.runnable = append(s.runnable, t)
}

// await blocks t until it is handed the token, a deadlock wakes it, or the
// machine's context dies.
func (m *Machine) await(t *Thread) error {
	select {
	case token := <-t.wake:
		if !token {
			return ErrDeadlock
		}
		return nil
	case <-m.ctx.Done():
		return ErrCancelled
	}
}

// handOff offers the token to a thread drawn from the runnable set and the
// holder itself, and waits for it to come back if another thread was drawn.
// With flush set it publishes the holder's step batch before it hands off.
func (m *Machine) handOff(flush bool) error {
	s := &m.sched
	t := s.holder
	s.mu.Lock()
	n := len(s.runnable)
	if n == 0 {
		s.mu.Unlock()
		return nil
	}
	i := s.draw(n + 1)
	if i == n {
		s.mu.Unlock()
		return nil
	}
	if flush {
		if err := m.flushSteps(t.st); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	next := s.takeLocked(i)
	s.runnable = append(s.runnable, t)
	s.giveLocked(next)
	s.mu.Unlock()
	return m.await(t)
}

// endQuantum flushes a full step batch and offers the token at the end of
// the holder's quantum.
func (m *Machine) endQuantum(st *frameArena) error {
	if err := m.flushSteps(st); err != nil {
		return err
	}
	return m.handOff(false)
}

// park blocks the holder on q until a release readies it, handing the token
// on. It flushes the holder's step batch first, so a parked thread's steps
// are counted. A deadlock fails the park with ErrDeadlock at line.
func (m *Machine) park(q *waitQueue, line int) error {
	s := &m.sched
	t := s.holder
	if err := m.flushSteps(t.st); err != nil {
		return err
	}
	if t.wake == nil {
		t.wake = make(chan bool, 1) // main's channel is made on first need
	}
	s.mu.Lock()
	if len(s.runnable) == 0 && s.outside == 0 {
		// Nothing could ever ready t: it fails here, keeping the token, so
		// the run reports its error before those of the threads its exit
		// wakes, whatever order the goroutines run in.
		s.mu.Unlock()
		return fmt.Errorf("%d:0: %w", line, ErrDeadlock)
	}
	q.push(t)
	s.parked = append(s.parked, t)
	s.releaseLocked()
	s.mu.Unlock()
	if err := m.await(t); err != nil {
		if errors.Is(err, ErrDeadlock) {
			return fmt.Errorf("%d:0: %w", line, err)
		}
		return err
	}
	return nil
}

// ready makes the first thread parked on q runnable, if there is one; it
// retries what it parked on when it next holds the token.
func (m *Machine) ready(q *waitQueue) {
	t := q.pop()
	if t == nil {
		return
	}
	s := &m.sched
	s.mu.Lock()
	s.readyLocked(t)
	s.mu.Unlock()
}

// leave releases the token while its holder waits outside the machine, in
// an MPI call or readline. The caller passes the returned thread to enter
// when the wait is over.
func (m *Machine) leave() *Thread {
	s := &m.sched
	t := s.holder
	s.mu.Lock()
	s.outside++
	s.releaseLocked()
	s.mu.Unlock()
	return t
}

// enter queues t for the token after a wait outside the machine, taking it
// at once if it is free.
func (m *Machine) enter(t *Thread) error {
	s := &m.sched
	s.mu.Lock()
	s.outside--
	if s.holder == nil {
		s.holder = t
		s.mu.Unlock()
		return nil
	}
	s.runnable = append(s.runnable, t)
	s.mu.Unlock()
	return m.await(t)
}

// exit ends t: it readies t's joiners and hands the token on. A thread that
// unwinds without the token, because its machine was cancelled or
// deadlocked, only leaves.
func (m *Machine) exit(t *Thread) {
	s := &m.sched
	s.mu.Lock()
	if s.holder == t {
		t.finished = true
		for j := t.joiners.pop(); j != nil; j = t.joiners.pop() {
			s.readyLocked(j)
		}
		s.releaseLocked()
	}
	s.mu.Unlock()
}

// spawn starts fi(args) as a new thread. It is runnable, and first runs when
// a handoff draws it.
func (m *Machine) spawn(fi int, args []Value) Value {
	if m.main.wake == nil {
		// Only main runs before the first spawn, so only it writes this.
		m.main.wake = make(chan bool, 1)
	}
	m.threadID++
	t := &Thread{id: m.threadID, wake: make(chan bool, 1)}
	m.threads.Add(1)
	s := &m.sched
	s.mu.Lock()
	s.runnable = append(s.runnable, t)
	s.mu.Unlock()
	go m.runThread(t, fi, args)
	return Value{Kind: KindThread, I: t.id, p: unsafe.Pointer(t)}
}

func (m *Machine) runThread(t *Thread, fi int, args []Value) {
	defer m.threads.Done()
	err := m.await(t)
	if err == nil {
		t.result, err = m.callFunction(t, m.unit.Funcs[fi], args)
	}
	if err != nil {
		t.err = err
		m.recordErr(fmt.Errorf("thread %d: %w", t.id, err))
	}
	m.exit(t)
}

// --- synchronization builtins ------------------------------------------------

func biMutex(_ *Machine, _ []Value, _ int) (Value, error) {
	return Value{Kind: KindMutex, p: unsafe.Pointer(&Mutex{})}, nil
}

func biLock(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindMutex {
		return Value{}, errAt(line, 0, "lock needs a mutex, got %s", args[0].Kind)
	}
	mu := args[0].Mu()
	for mu.held {
		if err := m.park(&mu.waiters, line); err != nil {
			return Value{}, err
		}
	}
	mu.held = true
	return UnitValue(), nil
}

// biUnlock frees the mutex and readies one waiter, which retries: a running
// thread may take the mutex first, as with sync.Mutex.
func biUnlock(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindMutex {
		return Value{}, errAt(line, 0, "unlock needs a mutex, got %s", args[0].Kind)
	}
	mu := args[0].Mu()
	if !mu.held {
		return Value{}, errAt(line, 0, "unlock of an unlocked mutex")
	}
	mu.held = false
	m.ready(&mu.waiters)
	return UnitValue(), nil
}

func biSem(_ *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindInt || args[0].I < 0 {
		return Value{}, errAt(line, 0, "sem needs a non-negative initial value")
	}
	return Value{Kind: KindSem, p: unsafe.Pointer(&Semaphore{count: args[0].I})}, nil
}

func biSemWait(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindSem {
		return Value{}, errAt(line, 0, "sem_wait needs a semaphore")
	}
	s := args[0].Sem()
	for s.count == 0 {
		if err := m.park(&s.waiters, line); err != nil {
			return Value{}, err
		}
	}
	s.count--
	return UnitValue(), nil
}

func biSemSignal(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindSem {
		return Value{}, errAt(line, 0, "sem_signal needs a semaphore")
	}
	s := args[0].Sem()
	s.count++
	m.ready(&s.waiters)
	return UnitValue(), nil
}

func biSemTryWait(_ *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindSem {
		return Value{}, errAt(line, 0, "sem_trywait needs a semaphore")
	}
	s := args[0].Sem()
	if s.count == 0 {
		return BoolValue(false), nil
	}
	s.count--
	return BoolValue(true), nil
}

func biJoin(m *Machine, args []Value, line int) (Value, error) {
	if args[0].Kind != KindThread {
		return Value{}, errAt(line, 0, "join needs a thread handle, got %s", args[0].Kind)
	}
	th := args[0].Th()
	for !th.finished {
		if err := m.park(&th.joiners, line); err != nil {
			return Value{}, err
		}
	}
	if th.err != nil {
		return Value{}, th.err
	}
	return th.result, nil
}

// biYield hands the token to a thread drawn by the picker, which may be the
// caller itself; it widens the race windows the buggy labs show.
func biYield(m *Machine, _ []Value, _ int) (Value, error) {
	return UnitValue(), m.handOff(true)
}
