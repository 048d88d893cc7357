// Package primitives implements the spin locks the course modules teach:
// test-and-set (TAS), test-and-test-and-set (TTAS) and ticket locks. They
// are real atomics-based implementations, and the lock-flavour ablation
// bench compares their behaviour under contention with sync.Mutex.
package primitives

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// cacheLineSize is the coherence unit of the hosts the course runs on.
const cacheLineSize = 64

// Locker matches sync.Locker so the lock flavours are interchangeable.
type Locker interface {
	Lock()
	Unlock()
}

// TASLock is a test-and-set spin lock: every acquisition attempt performs an
// atomic exchange, which in a real machine invalidates the cache line in
// every other core on every spin — the behaviour Lab 2 studies.
//
// The spin counter sits a cache line away from state, so counting a failed
// attempt adds no coherence traffic on the lock's own line.
type TASLock struct {
	state atomic.Int32
	_     [cacheLineSize - 4]byte
	spins atomic.Int64
}

// Lock spins until the lock is acquired.
func (l *TASLock) Lock() {
	for !l.TryLock() {
		l.spins.Add(1)
		runtime.Gosched()
	}
}

// TryLock attempts one test-and-set; it reports whether the lock was taken.
func (l *TASLock) TryLock() bool {
	return l.state.CompareAndSwap(0, 1)
}

// Unlock releases the lock. Unlocking an unlocked TASLock panics, mirroring
// sync.Mutex.
func (l *TASLock) Unlock() {
	if !l.state.CompareAndSwap(1, 0) {
		panic("primitives: unlock of unlocked TASLock")
	}
}

// Spins reports how many failed acquisition attempts have occurred, a proxy
// for the coherence traffic the spinning causes.
func (l *TASLock) Spins() int64 { return l.spins.Load() }

// TTASLock is a test-and-test-and-set lock: it spins on a plain read (which
// hits the local cache) and only attempts the expensive exchange when the
// lock looks free, reducing coherence traffic versus TAS.
//
// The spin counter sits a cache line away from state: a write to the
// lock's line on every read-only spin would bring back the traffic TTAS
// exists to avoid.
type TTASLock struct {
	state atomic.Int32
	_     [cacheLineSize - 4]byte
	spins atomic.Int64
}

// Lock spins (read-only) until the lock looks free, then tries to take it.
func (l *TTASLock) Lock() {
	for {
		for l.state.Load() != 0 {
			l.spins.Add(1)
			runtime.Gosched()
		}
		if l.state.CompareAndSwap(0, 1) {
			return
		}
	}
}

// TryLock attempts a single acquisition.
func (l *TTASLock) TryLock() bool {
	return l.state.Load() == 0 && l.state.CompareAndSwap(0, 1)
}

// Unlock releases the lock.
func (l *TTASLock) Unlock() {
	if !l.state.CompareAndSwap(1, 0) {
		panic("primitives: unlock of unlocked TTASLock")
	}
}

// Spins reports read-spin iterations observed while waiting.
func (l *TTASLock) Spins() int64 { return l.spins.Load() }

// TicketLock grants the lock in FIFO order: each arrival takes a ticket and
// waits for the now-serving counter to reach it. It is fair under contention,
// unlike TAS/TTAS.
type TicketLock struct {
	next    atomic.Uint64
	serving atomic.Uint64
}

// Lock takes a ticket and waits its turn.
func (l *TicketLock) Lock() {
	t := l.next.Add(1) - 1
	for l.serving.Load() != t {
		runtime.Gosched()
	}
}

// Unlock admits the next ticket holder.
func (l *TicketLock) Unlock() {
	l.serving.Add(1)
}

// Compile-time interface checks.
var (
	_ Locker = (*TASLock)(nil)
	_ Locker = (*TTASLock)(nil)
	_ Locker = (*TicketLock)(nil)
	_ Locker = (*sync.Mutex)(nil)
)
