package primitives

import (
	"sync"
	"testing"
	"time"
)

// exerciseLock hammers a counter behind the lock and checks mutual exclusion.
func exerciseLock(t *testing.T, l Locker) {
	t.Helper()
	const workers, each = 8, 2000
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*each {
		t.Fatalf("counter = %d, want %d (lost updates → broken mutual exclusion)", counter, workers*each)
	}
}

func TestTASLockMutualExclusion(t *testing.T)    { exerciseLock(t, &TASLock{}) }
func TestTTASLockMutualExclusion(t *testing.T)   { exerciseLock(t, &TTASLock{}) }
func TestTicketLockMutualExclusion(t *testing.T) { exerciseLock(t, &TicketLock{}) }

func TestTASTryLock(t *testing.T) {
	var l TASLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
	l.Unlock()
}

func TestTTASTryLock(t *testing.T) {
	var l TTASLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	for name, l := range map[string]Locker{"TAS": &TASLock{}, "TTAS": &TTASLock{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unlock of unlocked lock did not panic", name)
				}
			}()
			l.Unlock()
		}()
	}
}

func TestTASSpinsCountedUnderContention(t *testing.T) {
	var l TASLock
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	// Give the contender time to spin.
	time.Sleep(10 * time.Millisecond)
	if l.Spins() == 0 {
		t.Error("no spins recorded while lock was contended")
	}
	l.Unlock()
	<-done
}

func TestTicketLockFairnessFIFO(t *testing.T) {
	// Acquire in a known order: the ticket lock must grant in that order.
	var l TicketLock
	l.Lock() // hold so contenders queue up

	const n = 5
	order := make(chan int, n)
	var started sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		go func(i int) {
			started.Done()
			// Stagger arrival deterministically.
			time.Sleep(time.Duration(i+1) * 20 * time.Millisecond)
			l.Lock()
			order <- i
			l.Unlock()
		}(i)
	}
	started.Wait()
	time.Sleep(time.Duration(n+2) * 20 * time.Millisecond) // all queued
	l.Unlock()
	for want := 0; want < n; want++ {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("ticket lock granted out of order: got %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ticket holders starved")
		}
	}
}
