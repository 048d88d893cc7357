package jobs

import (
	"context"
	"errors"
	"io"
	"sync"
)

// defaultStreamLimit is the per-job output retention when none is configured.
const defaultStreamLimit = 1 << 20

// defaultChunkSize is the allocation unit of a stream's ring. A chunk is
// allocated when the producer first reaches its slot and is reused on every
// later lap, so a producer writing through a full ring never allocates.
const defaultChunkSize = 4096

// firstChunkMin is the size the first chunk starts at. It doubles as the job
// writes, up to the chunk size, so a job that prints one line keeps about a
// line of buffer after it finishes.
const firstChunkMin = 64

// Stream is the merged output of a job's ranks, built for fan-out: a chunked
// ring buffer addressed by monotonically increasing byte positions ("sequence
// numbers") that grows with the job's output up to its limit. Producers
// append under a short critical section; once every chunk is full size, a
// write allocates nothing. Any number of watchers attach at any sequence,
// catch up from the oldest retained byte, then tail via per-watcher
// notification channels — there is no broadcast thundering herd, and a slow
// watcher never blocks the producer: bytes it failed to read in time are
// overwritten and surface as an explicit dropped count on its next event.
//
// Positions count from the true start of the stream, so sequence numbers
// are stable across retention drops and across watchers.
type Stream struct {
	mu     sync.Mutex
	chunks [][]byte // ring slots up to the highest touched; at most nslots
	csize  int      // bytes per full chunk
	nslots int
	limit  int   // max retained bytes; limit <= (nslots-1)*csize
	start  int64 // position of the oldest retained byte
	total  int64 // position one past the newest byte
	closed bool

	wmu      sync.RWMutex
	watchers map[*Watcher]struct{} // made on the first Watch
	peak     int                   // high-water mark of concurrent watchers
}

// NewStream returns a Stream retaining at most limit bytes (0 means 1 MiB).
// When the limit is exceeded the oldest bytes are dropped; positions keep
// counting from the true start so readers notice the gap.
func NewStream(limit int) *Stream {
	if limit <= 0 {
		limit = defaultStreamLimit
	}
	csize := defaultChunkSize
	if limit < csize {
		csize = limit
	}
	// One spare slot beyond the retention window: the slot the producer is
	// filling never overlaps the slot holding the oldest retained byte, so
	// reads and the in-progress write can never collide in the ring.
	nslots := (limit+csize-1)/csize + 1
	return &Stream{csize: csize, nslots: nslots, limit: limit}
}

// slotIndex maps a stream position to its ring slot.
func (s *Stream) slotIndex(pos int64) int {
	return int(pos / int64(s.csize) % int64(s.nslots))
}

// growSlot makes slot i hold at least end bytes for a write at pos. The
// table grows to the slot, never past nslots. The first chunk of the stream
// (positions below csize) doubles from firstChunkMin; any other chunk is
// allocated at full size, and a short first chunk reached again on a later
// lap is replaced by a full one. Bytes already in the slot are kept.
func (s *Stream) growSlot(i int, pos int64, end int) {
	if i >= len(s.chunks) {
		if i >= cap(s.chunks) {
			t := make([][]byte, len(s.chunks), min(max(i+1, 2*cap(s.chunks)), s.nslots))
			copy(t, s.chunks)
			s.chunks = t
		}
		s.chunks = s.chunks[:i+1]
	}
	n := s.csize
	if pos < int64(s.csize) {
		n = max(firstChunkMin, 2*len(s.chunks[i]))
		for n < end {
			n *= 2
		}
		n = min(n, s.csize)
	}
	c := make([]byte, n)
	copy(c, s.chunks[i])
	s.chunks[i] = c
}

// Write appends p; it never fails and never blocks on watchers. Writes after
// Close are discarded.
func (s *Stream) Write(p []byte) (int, error) {
	n := len(p)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return n, nil
	}
	if n == 0 {
		s.mu.Unlock()
		return 0, nil
	}
	s.total += int64(n)
	data := p
	if len(data) > s.limit {
		// A single write larger than the whole ring: only its tail is ever
		// readable, so skip the head entirely.
		data = data[len(data)-s.limit:]
	}
	// Advance the retention window before copying so a wrapped slot is
	// never read as current data.
	if floor := s.total - int64(s.limit); floor > s.start {
		s.start = floor
	}
	for pos := s.total - int64(len(data)); pos < s.total; {
		off := int(pos % int64(s.csize))
		end := min(s.csize, off+int(s.total-pos))
		i := s.slotIndex(pos)
		if i >= len(s.chunks) || len(s.chunks[i]) < end {
			s.growSlot(i, pos, end)
		}
		pos += int64(copy(s.chunks[i][off:end], data[len(data)-int(s.total-pos):]))
	}
	s.mu.Unlock()
	s.notifyAll()
	return n, nil
}

// Close marks the stream complete; readers see done=true once drained.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notifyAll()
}

// notifyAll pokes every watcher's buffered channel without blocking: a
// watcher that already has a pending notification simply coalesces.
func (s *Stream) notifyAll() {
	s.wmu.RLock()
	for w := range s.watchers {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
	s.wmu.RUnlock()
}

// Len returns the total bytes written so far (including dropped ones).
func (s *Stream) Len() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// copyRange copies retained bytes [from, to) into a fresh slice. Caller
// holds s.mu and guarantees start <= from <= to <= total.
func (s *Stream) copyRange(from, to int64) []byte {
	out := make([]byte, to-from)
	for pos := from; pos < to; {
		c := s.chunks[s.slotIndex(pos)]
		off := int(pos % int64(s.csize))
		end := s.csize
		if left := int(to - pos); left < end-off {
			end = off + left
		}
		pos += int64(copy(out[pos-from:], c[off:end]))
	}
	return out
}

// ReadFrom returns up to max retained bytes from position `from` onward
// (max <= 0 means all available), without blocking. It reports the position
// to resume from, how many bytes between `from` and the returned data were
// dropped from retention, and whether the stream is closed. A position past
// the end is clamped to the end.
func (s *Stream) ReadFrom(from int64, max int) (data []byte, next int64, dropped int64, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > s.total {
		from = s.total
	}
	if from < s.start {
		dropped = s.start - from
		from = s.start
	}
	to := s.total
	if max > 0 && to-from > int64(max) {
		to = from + int64(max)
	}
	return s.copyRange(from, to), to, dropped, s.closed
}

// String returns the retained contents.
func (s *Stream) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.copyRange(s.start, s.total))
}

// StreamStats is a point-in-time summary of one stream.
type StreamStats struct {
	// Total is all bytes ever written; Retained is how many of them are
	// still readable; Dropped is how many aged out of retention, Total -
	// Retained.
	Total, Retained, Dropped int64
	// Watchers is the number of currently attached watchers; PeakWatchers
	// is the high-water mark over the stream's life.
	Watchers, PeakWatchers int
	Closed                 bool
}

// Stats reports the stream's counters.
func (s *Stream) Stats() StreamStats {
	s.mu.Lock()
	st := StreamStats{
		Total:    s.total,
		Retained: s.total - s.start,
		Dropped:  s.start,
		Closed:   s.closed,
	}
	s.mu.Unlock()
	s.wmu.RLock()
	st.Watchers = len(s.watchers)
	st.PeakWatchers = s.peak
	s.wmu.RUnlock()
	return st
}

// Event is one unit of watcher delivery. Seq is the stream position
// immediately after Data — the cursor to resume from. Dropped counts bytes
// between the watcher's previous position and Data that aged out of
// retention before the watcher read them (0 in the healthy case).
type Event struct {
	Seq     int64
	Data    []byte
	Dropped int64
}

// Watcher is one attached consumer of a Stream. Watchers are independent:
// each has its own position and its own notification channel, so a slow or
// stalled watcher affects neither the producer nor other watchers.
type Watcher struct {
	s      *Stream
	notify chan struct{}

	mu  sync.Mutex
	pos int64
}

// Watch attaches a watcher at stream position from. A negative from attaches
// at the live tail (only new data); a stale position is clamped to the
// oldest retained byte at first read, surfacing the gap as Event.Dropped; a
// future position is clamped to the current head.
func (s *Stream) Watch(from int64) *Watcher {
	s.mu.Lock()
	if from < 0 || from > s.total {
		from = s.total
	}
	s.mu.Unlock()
	w := &Watcher{s: s, notify: make(chan struct{}, 1), pos: from}
	s.wmu.Lock()
	if s.watchers == nil {
		s.watchers = make(map[*Watcher]struct{})
	}
	s.watchers[w] = struct{}{}
	if n := len(s.watchers); n > s.peak {
		s.peak = n
	}
	s.wmu.Unlock()
	return w
}

// Close detaches the watcher. Closing twice is harmless.
func (w *Watcher) Close() {
	w.s.wmu.Lock()
	delete(w.s.watchers, w)
	w.s.wmu.Unlock()
}

// Notify returns the watcher's wake channel: it receives (with coalescing)
// after every stream write and on close. Handlers that multiplex a watcher
// with timers and request contexts select on it and then drain TryNext.
func (w *Watcher) Notify() <-chan struct{} { return w.notify }

// Pos returns the watcher's resume position.
func (w *Watcher) Pos() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pos
}

// Lag reports how many bytes the watcher is behind the stream head.
func (w *Watcher) Lag() int64 {
	w.mu.Lock()
	pos := w.pos
	w.mu.Unlock()
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	if w.s.total < pos {
		return 0
	}
	return w.s.total - pos
}

// TryNext returns the next event without blocking: up to max bytes (<= 0
// means all available) from the watcher's position, advancing it. ok is
// false when the watcher is fully caught up.
func (w *Watcher) TryNext(max int) (ev Event, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, next, dropped, _ := w.s.ReadFrom(w.pos, max)
	if len(data) == 0 && dropped == 0 {
		return Event{}, false
	}
	w.pos = next
	return Event{Seq: next, Data: data, Dropped: dropped}, true
}

// Drained reports whether the stream is closed and the watcher has consumed
// everything it will ever deliver.
func (w *Watcher) Drained() bool {
	w.mu.Lock()
	pos := w.pos
	w.mu.Unlock()
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	return w.s.closed && pos >= w.s.total
}

// Next blocks until data past the watcher's position is available, the
// stream closes (io.EOF after the last byte is delivered), or ctx is
// cancelled. Catch-up reads are capped at max bytes per event (<= 0 means
// unbounded).
func (w *Watcher) Next(ctx context.Context, max int) (Event, error) {
	for {
		if ev, ok := w.TryNext(max); ok {
			return ev, nil
		}
		if w.Drained() {
			return Event{}, io.EOF
		}
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-w.notify:
		}
	}
}

// defaultStdinLimit bounds the interactive stdin buffer when none is
// configured: enough for any classroom program, small enough that a
// malicious client cannot balloon the process.
const defaultStdinLimit = 1 << 20

// ErrStdinOverflow is returned when feeding an Input would exceed its cap.
var ErrStdinOverflow = errors.New("jobs: stdin buffer full")

// Input is the interactive stdin feed: the portal's "provide input, if so
// the target application requires it". The job reads it as an io.Reader;
// the web handler appends to it as users type. The buffer holds only bytes
// the program has not read yet and is capped, so a client cannot feed
// unbounded input faster than the program consumes it.
type Input struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	limit  int
	closed bool
}

// NewInput returns an empty Input buffering at most limit unread bytes
// (0 means 1 MiB).
func NewInput(limit int) *Input {
	if limit <= 0 {
		limit = defaultStdinLimit
	}
	in := &Input{limit: limit}
	in.cond = sync.NewCond(&in.mu)
	return in
}

// Feed appends user-typed bytes. It fails with ErrStdinOverflow when the
// unread backlog would exceed the cap — the program is not consuming input
// as fast as the client sends it. Feeding a closed Input is a no-op.
func (in *Input) Feed(p []byte) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return nil
	}
	if len(in.buf)+len(p) > in.limit {
		return ErrStdinOverflow
	}
	in.buf = append(in.buf, p...)
	in.cond.Broadcast()
	return nil
}

// Close signals end-of-input (EOF to the program).
func (in *Input) Close() {
	in.mu.Lock()
	in.closed = true
	in.cond.Broadcast()
	in.mu.Unlock()
}

// Read implements io.Reader, blocking until input arrives or EOF.
func (in *Input) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.buf) == 0 {
		if in.closed {
			return 0, io.EOF
		}
		in.cond.Wait()
	}
	n := copy(p, in.buf)
	in.buf = in.buf[n:]
	return n, nil
}
