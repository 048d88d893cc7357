package jobs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// pattern is the deterministic byte at stream position p, so any received
// slice can be checked against where the stream says it came from.
func pattern(p int64) byte { return byte(p % 251) }

// TestStreamCatchUpThenTailEquivalence is the core fan-out contract: a
// watcher that attaches at sequence 0 while a producer is writing receives,
// in order, exactly the bytes written minus the ranges it was explicitly
// told were dropped — never silently missing, duplicated, or corrupted data.
func TestStreamCatchUpThenTailEquivalence(t *testing.T) {
	const total = 1 << 20
	s := NewStream(1 << 16) // 16x smaller than the write volume: drops are possible
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer s.Close()
		r := rand.New(rand.NewSource(1))
		buf := make([]byte, 4096)
		pos := int64(0)
		for pos < total {
			n := 1 + r.Intn(len(buf))
			if pos+int64(n) > total {
				n = int(total - pos)
			}
			for i := 0; i < n; i++ {
				buf[i] = pattern(pos + int64(i))
			}
			if _, err := s.Write(buf[:n]); err != nil {
				t.Error(err)
				return
			}
			pos += int64(n)
		}
	}()

	w := s.Watch(0)
	defer w.Close()
	ctx := context.Background()
	var received, dropped, prev int64
	for {
		ev, err := w.Next(ctx, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq <= prev && (len(ev.Data) > 0 || ev.Dropped > 0) {
			t.Fatalf("sequence went backwards: %d after %d", ev.Seq, prev)
		}
		start := ev.Seq - int64(len(ev.Data))
		for i, b := range ev.Data {
			if want := pattern(start + int64(i)); b != want {
				t.Fatalf("byte at position %d = %d, want %d", start+int64(i), b, want)
			}
		}
		received += int64(len(ev.Data))
		dropped += ev.Dropped
		prev = ev.Seq
	}
	<-done
	if received+dropped != total {
		t.Fatalf("received %d + dropped %d != written %d", received, dropped, total)
	}
}

// TestStreamStalledWatcherNeverBlocksProducer pushes 4 MiB through a 4 KiB
// ring with a watcher attached that never reads. The producer must finish
// promptly (the write path takes no per-watcher locks and sends no blocking
// notifications), and the stalled watcher's next read must carry an explicit
// dropped-range marker covering everything it missed.
func TestStreamStalledWatcherNeverBlocksProducer(t *testing.T) {
	s := NewStream(4096)
	stalled := s.Watch(0)
	defer stalled.Close()

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		chunk := bytes.Repeat([]byte{'x'}, 1024)
		for i := 0; i < 4096; i++ {
			s.Write(chunk)
		}
		s.Close()
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("producer blocked with a stalled watcher attached")
	}

	ev, ok := stalled.TryNext(0)
	if !ok {
		t.Fatal("stalled watcher has nothing to read after 4 MiB of writes")
	}
	if ev.Dropped == 0 {
		t.Fatal("stalled watcher saw no dropped-range marker")
	}
	if ev.Dropped+int64(len(ev.Data)) != s.Len() {
		t.Fatalf("dropped %d + data %d != total %d", ev.Dropped, len(ev.Data), s.Len())
	}
	if !stalled.Drained() {
		t.Fatal("watcher not drained after reading everything")
	}
}

// TestStreamWatchersAttachDetachRace churns watchers on and off a stream
// while several producers write — the shape `go test -race` catches
// registry and ring races in.
func TestStreamWatchersAttachDetachRace(t *testing.T) {
	s := NewStream(1 << 12)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte('a' + p)}, 64)
			for i := 0; i < 500; i++ {
				s.Write(buf)
			}
		}(p)
	}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				w := s.Watch(int64(i*k - 8))
				for j := 0; j < 3; j++ {
					w.TryNext(128)
					w.Lag()
				}
				w.Close()
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	// After the dust settles a fresh watcher drains cleanly to EOF and the
	// equivalence invariant holds.
	w := s.Watch(0)
	defer w.Close()
	var received, dropped int64
	ctx := context.Background()
	for {
		ev, err := w.Next(ctx, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		received += int64(len(ev.Data))
		dropped += ev.Dropped
	}
	if received+dropped != s.Len() {
		t.Fatalf("received %d + dropped %d != total %d", received, dropped, s.Len())
	}
}

// TestStreamStatsWatchers checks the attach/detach accounting the
// stream_watchers metric and Stats() report.
func TestStreamStatsWatchers(t *testing.T) {
	s := NewStream(0)
	s.Write([]byte("abc"))
	w1, w2, w3 := s.Watch(0), s.Watch(-1), s.Watch(99)
	if st := s.Stats(); st.Watchers != 3 || st.PeakWatchers != 3 {
		t.Fatalf("stats with 3 attached = %+v", st)
	}
	w1.Close()
	w2.Close()
	if st := s.Stats(); st.Watchers != 1 || st.PeakWatchers != 3 {
		t.Fatalf("stats after detach = %+v", st)
	}
	w3.Close()
	w3.Close() // double close is harmless
	if st := s.Stats(); st.Watchers != 0 || st.Total != 3 || st.Retained != 3 || st.Dropped != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

// TestStreamTailAttach: a negative position subscribes to new data only.
func TestStreamTailAttach(t *testing.T) {
	s := NewStream(0)
	s.Write([]byte("old history"))
	w := s.Watch(-1)
	defer w.Close()
	if ev, ok := w.TryNext(0); ok {
		t.Fatalf("tail watcher saw history: %+v", ev)
	}
	s.Write([]byte("fresh"))
	ev, ok := w.TryNext(0)
	if !ok || string(ev.Data) != "fresh" || ev.Dropped != 0 {
		t.Fatalf("tail watcher event = %+v, ok=%v", ev, ok)
	}
}

// ringBytes is the buffer memory a stream holds: its slot table and chunks.
func ringBytes(s *Stream) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := cap(s.chunks) * int(unsafe.Sizeof([]byte(nil)))
	for _, c := range s.chunks {
		n += cap(c)
	}
	return n
}

// TestStreamFinishedJobKeepsItsOutput pins the per-job footprint: a finished
// job that printed one short line keeps about that line of buffer, not a
// whole chunk and a full-size slot table, however large its limit.
func TestStreamFinishedJobKeepsItsOutput(t *testing.T) {
	s := NewStream(0)
	if n := ringBytes(s); n != 0 {
		t.Fatalf("unwritten stream holds %d bytes of buffer, want 0", n)
	}
	s.Write([]byte("ok\n"))
	s.Close()
	if n := ringBytes(s); n > 128 {
		t.Fatalf("closed stream holding %q keeps %d bytes of buffer, want at most 128", s.String(), n)
	}
	if got := s.String(); got != "ok\n" {
		t.Fatalf("retained %q", got)
	}
}

// TestStreamPastLimitHoldsRetentionWindow writes a stream through its first
// chunk's growth and several laps of its ring in uneven pieces. It must
// retain exactly its limit, read it back byte-exact from offsets across the
// window, and hold no more than the full ring.
func TestStreamPastLimitHoldsRetentionWindow(t *testing.T) {
	const limit = 4 * defaultChunkSize
	s := NewStream(limit)
	r := rand.New(rand.NewSource(7))
	buf := make([]byte, 3*defaultChunkSize)
	var pos int64
	for pos < 5*limit {
		n := 1 + r.Intn(100)
		if r.Intn(8) == 0 {
			n = 1 + r.Intn(len(buf))
		}
		for i := 0; i < n; i++ {
			buf[i] = pattern(pos + int64(i))
		}
		s.Write(buf[:n])
		pos += int64(n)
	}
	st := s.Stats()
	if st.Total != pos || st.Retained != limit || st.Dropped != pos-limit {
		t.Fatalf("stats = %+v, want total %d retained %d", st, pos, limit)
	}
	for _, from := range []int64{0, pos - limit, pos - limit + 1, pos - defaultChunkSize - 3, pos - 1, pos} {
		data, next, dropped, _ := s.ReadFrom(from, 0)
		start := max(from, pos-limit)
		if next != pos || dropped != start-from || int64(len(data)) != pos-start {
			t.Fatalf("ReadFrom(%d): %d bytes, next %d, dropped %d", from, len(data), next, dropped)
		}
		for i, b := range data {
			if want := pattern(start + int64(i)); b != want {
				t.Fatalf("ReadFrom(%d): byte at position %d = %d, want %d", from, start+int64(i), b, want)
			}
		}
	}
	full := (limit/defaultChunkSize + 1) * (defaultChunkSize + int(unsafe.Sizeof([]byte(nil))))
	if n := ringBytes(s); n > full {
		t.Fatalf("ring holds %d bytes, more than the full ring's %d", n, full)
	}
}

// TestStreamWriteSteadyStateZeroAlloc gates BenchmarkStreamWrite's claim in
// the test suite: once the ring has wrapped, a write allocates nothing.
func TestStreamWriteSteadyStateZeroAlloc(t *testing.T) {
	s := NewStream(1 << 16)
	buf := bytes.Repeat([]byte{'x'}, 1024)
	for i := 0; i < 2*(1<<16)/len(buf); i++ {
		s.Write(buf)
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Write(buf) }); allocs != 0 {
		t.Fatalf("steady-state Write: %v allocs/op, want 0", allocs)
	}
}

func TestInputOverflowRejected(t *testing.T) {
	in := NewInput(8)
	if err := in.Feed([]byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if err := in.Feed([]byte("9")); !errors.Is(err, ErrStdinOverflow) {
		t.Fatalf("overflow feed err = %v, want ErrStdinOverflow", err)
	}
	// Draining makes room again.
	buf := make([]byte, 8)
	if _, err := in.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := in.Feed([]byte("9")); err != nil {
		t.Fatalf("feed after drain: %v", err)
	}
}

func TestSubmitRejectsOversizedStdin(t *testing.T) {
	s, _ := newStore(t)
	s.SetStreamLimits(0, 4)
	sp := spec()
	sp.Stdin = "too long for the cap"
	if _, err := s.Submit(sp); !errors.Is(err, ErrStdinOverflow) {
		t.Fatalf("Submit err = %v, want ErrStdinOverflow", err)
	}
	sp.Stdin = "ok"
	if _, err := s.Submit(sp); err != nil {
		t.Fatalf("Submit under cap: %v", err)
	}
}

// FuzzStreamResume fuzzes the resume path over arbitrary sequence numbers —
// stale (already dropped), future (past the head), and negative — asserting
// the positional algebra every consumer relies on: from + dropped +
// len(data) == next, and a drained watcher always lands exactly on the
// stream head.
func FuzzStreamResume(f *testing.F) {
	f.Add(int64(0), []byte("hello world"), uint8(3))
	f.Add(int64(-7), []byte("x"), uint8(200))
	f.Add(int64(1)<<40, []byte(""), uint8(1))
	f.Add(int64(17), bytes.Repeat([]byte("ab"), 300), uint8(9))
	f.Add(int64(511), bytes.Repeat([]byte("z"), 513), uint8(15))
	f.Fuzz(func(t *testing.T, seq int64, chunk []byte, n uint8) {
		s := NewStream(512)
		for i := 0; i <= int(n%16); i++ {
			s.Write(chunk)
		}
		total := s.Len()

		// Direct read invariants.
		data, next, dropped, _ := s.ReadFrom(seq, 0)
		if next > total || next < 0 {
			t.Fatalf("next %d out of [0, %d]", next, total)
		}
		if seq >= 0 && seq <= total {
			if seq+dropped+int64(len(data)) != next {
				t.Fatalf("ReadFrom(%d): %d + %d + %d != %d", seq, seq, dropped, len(data), next)
			}
		}

		// Watcher drain invariants.
		w := s.Watch(seq)
		defer w.Close()
		pos := w.Pos()
		if pos < 0 || pos > total {
			t.Fatalf("attach position %d out of [0, %d]", pos, total)
		}
		prev := pos
		var got, lost int64
		for {
			ev, ok := w.TryNext(97)
			if !ok {
				break
			}
			if prev+ev.Dropped+int64(len(ev.Data)) != ev.Seq {
				t.Fatalf("event algebra: %d + %d + %d != %d", prev, ev.Dropped, len(ev.Data), ev.Seq)
			}
			prev = ev.Seq
			got += int64(len(ev.Data))
			lost += ev.Dropped
		}
		if prev != total {
			t.Fatalf("drained watcher stopped at %d, head is %d", prev, total)
		}
		if pos+got+lost != total {
			t.Fatalf("%d attached + %d received + %d dropped != %d total", pos, got, lost, total)
		}
	})
}
