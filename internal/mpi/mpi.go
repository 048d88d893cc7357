// Package mpi is the message-passing runtime that parallel jobs on the
// simulated cluster use, covering the Message Passing topics the course
// introduces: point-to-point send/receive, collectives (barrier, broadcast,
// reduce, scatter, gather), topology-aware latency and routing.
//
// Timing uses virtual-time propagation in the style of a LogP simulation:
// every rank carries a local virtual clock; Tick models local computation,
// and a message stamps the sender's clock so the receiver's clock advances to
// at least send-time + wire-cost, where the wire cost comes from the grid
// topology (package topology). Ranks on the same node talk at UMA speed,
// ranks in different segments pay the NUMA penalty — which is exactly what
// Lab 3 measures.
//
// The data plane is allocation-free in steady state: payloads travel in
// pooled buffers leased on Send and released when the receiver consumes the
// message (Recv copies out and releases; RecvInto reuses the caller's
// buffer; collectives release internally). Virtual clocks and traffic
// counters are atomics, so no lock is taken on the per-message path.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/topology"
)

// Errors returned by communication calls.
var (
	ErrBadRank     = errors.New("mpi: rank out of range")
	ErrSelfSend    = errors.New("mpi: send to self without buffering would deadlock")
	ErrWorldClosed = errors.New("mpi: world is closed")
	// ErrCancelled is returned by blocked Send/Recv (and the collectives
	// built on them) when the world's context dies: a cancelled job's ranks
	// must not stay parked on a channel forever.
	ErrCancelled = errors.New("mpi: world cancelled")
)

// Algorithm selects the collective implementation (the ablation axis).
type Algorithm int

// Collective algorithms.
const (
	// Linear: the root exchanges with every rank directly. O(P) steps.
	Linear Algorithm = iota
	// Tree: binomial tree, O(log P) rounds; the barrier is dissemination.
	Tree
	// Hier: topology-aware hierarchy. One leader is elected per grid
	// segment; collectives run binomially inside each segment and exchange
	// across segments only between leaders, so inter-segment crossings are
	// O(segments) instead of O(P).
	Hier
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Tree:
		return "tree"
	case Hier:
		return "hier"
	default:
		return "linear"
	}
}

// AlgorithmByName resolves a collective algorithm identifier.
func AlgorithmByName(name string) (Algorithm, error) {
	switch name {
	case "", "linear":
		return Linear, nil
	case "tree":
		return Tree, nil
	case "hier":
		return Hier, nil
	default:
		return Linear, fmt.Errorf("mpi: unknown collective algorithm %q", name)
	}
}

// Op is a reduction operator.
type Op int

// Reduction operators over float64.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
)

// --- pooled payload buffers --------------------------------------------------

// payloadBuf is a leased payload backing array. Send copies the caller's
// bytes into a lease; ownership travels with the message and the consumer
// releases it back to the pool, so the per-message path allocates nothing
// once the pool is warm.
type payloadBuf struct{ b []byte }

var payloadPool = sync.Pool{New: func() any { return &payloadBuf{b: make([]byte, 0, 512)} }}

func leaseBuf(n int) *payloadBuf {
	p := payloadPool.Get().(*payloadBuf)
	if cap(p.b) < n {
		p.b = make([]byte, n)
	}
	p.b = p.b[:n]
	return p
}

type message struct {
	tag      int
	sendTime time.Duration // sender's virtual clock at send
	data     []byte        // payload view; backed by pooled when non-nil
	pooled   *payloadBuf
}

// release returns the message's lease to the pool. Safe on messages without
// a lease (nil payloads) and idempotent per message value.
func (m *message) release() {
	if p := m.pooled; p != nil {
		m.pooled = nil
		m.data = nil
		payloadPool.Put(p)
	}
}

// World is one parallel program instance: size ranks placed on cluster
// nodes. Create it with New, obtain per-rank endpoints with Comm, and run
// each rank in its own goroutine.
type World struct {
	size     int
	grid     *topology.Grid
	places   []topology.NodeID
	algo     Algorithm
	overhead time.Duration
	done     <-chan struct{} // nil (blocks forever) unless Options.Ctx is set

	// queues[src][dst] carries messages; buffered so sends are async up to
	// the buffer depth, like a real MPI eager protocol. The channels are
	// never closed — Close signals through closeCh instead, so a sender
	// that raced past the closed check can never panic on a closed channel.
	queues [][]chan message

	closed    atomic.Bool
	closeCh   chan struct{}
	closeOnce sync.Once

	comms    []*Comm
	allRanks []int     // 0..size-1, reused by whole-world group collectives
	hier     *hierPlan // non-nil iff algo == Hier
}

// hierPlan is the per-world segment hierarchy used by the Hier algorithm,
// precomputed at New from the placement.
type hierPlan struct {
	groups     [][]int // rank indices per segment, ascending within a group
	groupOf    []int   // rank -> index into groups
	posInGroup []int   // rank -> its position within its group
}

// Options tune a World.
type Options struct {
	// Algorithm selects the collective implementation; default Linear.
	Algorithm Algorithm
	// BufferDepth is the per-channel eager buffer; default 64.
	BufferDepth int
	// SendOverhead is the CPU time a rank spends injecting one message
	// (LogP's o); it serializes a sender's messages so, e.g., a linear
	// broadcast's root pays (P-1)·o. Default 5µs; negative disables.
	SendOverhead time.Duration
	// Ctx is the world's lifecycle context (typically the owning job's).
	// When it dies, blocked Send/Recv and the collectives abort with
	// ErrCancelled. nil means communication never aborts early.
	Ctx context.Context
}

// New creates a World with one rank per entry of places. places[i] is the
// cluster node rank i runs on; two ranks may share a node (multi-core).
func New(grid *topology.Grid, places []topology.NodeID, opts Options) (*World, error) {
	if len(places) == 0 {
		return nil, errors.New("mpi: world needs at least one rank")
	}
	for i, p := range places {
		if !grid.Valid(p) {
			return nil, fmt.Errorf("mpi: rank %d placed on invalid node %v", i, p)
		}
	}
	depth := opts.BufferDepth
	if depth <= 0 {
		depth = 64
	}
	overhead := opts.SendOverhead
	if overhead == 0 {
		overhead = 5 * time.Microsecond
	}
	if overhead < 0 {
		overhead = 0
	}
	size := len(places)
	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	w := &World{
		size:     size,
		grid:     grid,
		places:   append([]topology.NodeID(nil), places...),
		algo:     opts.Algorithm,
		overhead: overhead,
		done:     done,
		queues:   make([][]chan message, size),
		closeCh:  make(chan struct{}),
		comms:    make([]*Comm, size),
	}
	for i := range w.queues {
		w.queues[i] = make([]chan message, size)
		for j := range w.queues[i] {
			w.queues[i][j] = make(chan message, depth)
		}
	}
	w.allRanks = make([]int, size)
	for r := 0; r < size; r++ {
		w.comms[r] = &Comm{world: w, rank: r}
		w.allRanks[r] = r
	}
	if opts.Algorithm == Hier {
		groups := topology.GroupBySegment(w.places)
		plan := &hierPlan{
			groups:     groups,
			groupOf:    make([]int, size),
			posInGroup: make([]int, size),
		}
		for gi, g := range groups {
			for pos, r := range g {
				plan.groupOf[r] = gi
				plan.posInGroup[r] = pos
			}
		}
		w.hier = plan
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Algorithm returns the collective algorithm in use.
func (w *World) Algorithm() Algorithm { return w.algo }

// Place returns the node a rank runs on.
func (w *World) Place(rank int) (topology.NodeID, error) {
	if rank < 0 || rank >= w.size {
		return topology.NodeID{}, fmt.Errorf("%w: %d", ErrBadRank, rank)
	}
	return w.places[rank], nil
}

// Comm returns rank r's endpoint. Each endpoint must be used from a single
// goroutine (the rank's own), matching the MPI process model.
func (w *World) Comm(r int) (*Comm, error) {
	if r < 0 || r >= w.size {
		return nil, fmt.Errorf("%w: %d", ErrBadRank, r)
	}
	return w.comms[r], nil
}

// Close tears the world down; subsequent sends and would-block receives fail
// with ErrWorldClosed, and undelivered messages are discarded. Close is
// idempotent and safe to call concurrently with in-flight Send/Recv: the
// queues are never closed, so a racing sender blocks out harmlessly on
// closeCh instead of panicking on a closed channel.
func (w *World) Close() {
	w.closeOnce.Do(func() {
		w.closed.Store(true)
		close(w.closeCh)
		// Reclaim payload leases still parked in the queues. A sender that
		// already passed the closed check may deposit one more message after
		// this sweep; it is simply left to the GC.
		for _, row := range w.queues {
			for _, q := range row {
			drain:
				for {
					select {
					case m := <-q:
						m.release()
					default:
						break drain
					}
				}
			}
		}
	})
}

// MaxElapsed returns the largest per-rank virtual time — the parallel
// program's makespan.
func (w *World) MaxElapsed() time.Duration {
	var max time.Duration
	for _, c := range w.comms {
		if e := c.Elapsed(); e > max {
			max = e
		}
	}
	return max
}

// Comm is one rank's communication endpoint.
type Comm struct {
	world *World
	rank  int

	vtime atomic.Int64 // virtual clock, nanoseconds

	sent     atomic.Int64
	received atomic.Int64
	bytesOut atomic.Int64
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Node returns the cluster node this rank runs on.
func (c *Comm) Node() topology.NodeID { return c.world.places[c.rank] }

// Elapsed returns this rank's virtual clock.
func (c *Comm) Elapsed() time.Duration {
	return time.Duration(c.vtime.Load())
}

// Tick advances this rank's virtual clock by d, modelling local computation.
func (c *Comm) Tick(d time.Duration) {
	if d <= 0 {
		return
	}
	c.vtime.Add(int64(d))
}

// advanceTo lifts the clock to at least t (a CAS max — Comm is used from
// one goroutine, but MaxElapsed may read concurrently).
func (c *Comm) advanceTo(t time.Duration) {
	for {
		cur := c.vtime.Load()
		if int64(t) <= cur || c.vtime.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Sent and Received report message counts; BytesOut total payload sent.
func (c *Comm) Sent() int64     { return c.sent.Load() }
func (c *Comm) Received() int64 { return c.received.Load() }
func (c *Comm) BytesOut() int64 { return c.bytesOut.Load() }

// Send delivers data to rank dst with the given tag. It is asynchronous up
// to the world's buffer depth, then blocks (rendezvous), like MPI's standard
// mode. Sending to self is allowed thanks to buffering. A Send blocked on a
// full buffer aborts with ErrCancelled when the world's context dies, or
// ErrWorldClosed when the world is torn down under it.
func (c *Comm) Send(dst, tag int, data []byte) error {
	w := c.world
	if dst < 0 || dst >= w.size {
		return fmt.Errorf("%w: dst %d", ErrBadRank, dst)
	}
	if w.closed.Load() {
		return ErrWorldClosed
	}
	m := message{tag: tag}
	if len(data) > 0 {
		m.pooled = leaseBuf(len(data))
		copy(m.pooled.b, data)
		m.data = m.pooled.b
	}
	return c.deliver(dst, m, int64(len(data)))
}

// deliver stamps the message with the sender's clock (after paying the
// injection overhead) and enqueues it. The fast path is one non-blocking
// channel send; only a full buffer falls back to the blocking select.
func (c *Comm) deliver(dst int, m message, nbytes int64) error {
	w := c.world
	m.sendTime = time.Duration(c.vtime.Add(int64(w.overhead)))
	q := w.queues[c.rank][dst]
	select {
	case q <- m:
	default:
		select {
		case q <- m:
		case <-w.done:
			m.release()
			return ErrCancelled
		case <-w.closeCh:
			m.release()
			return ErrWorldClosed
		}
	}
	c.sent.Add(1)
	c.bytesOut.Add(nbytes)
	return nil
}

// recvMsg dequeues the next message from src with the given tag and advances
// the virtual clock. The caller owns the returned message's lease and must
// release it (directly or via one of the public receive wrappers).
func (c *Comm) recvMsg(src, tag int) (message, error) {
	w := c.world
	if src < 0 || src >= w.size {
		return message{}, fmt.Errorf("%w: src %d", ErrBadRank, src)
	}
	q := w.queues[src][c.rank]
	var m message
	select {
	case m = <-q:
	default:
		select {
		case m = <-q:
		case <-w.done:
			// Drain an already-delivered message in preference to aborting,
			// so cancellation never drops data that had actually arrived.
			select {
			case m = <-q:
			default:
				return message{}, ErrCancelled
			}
		case <-w.closeCh:
			select {
			case m = <-q:
			default:
				return message{}, ErrWorldClosed
			}
		}
	}
	if m.tag != tag {
		err := fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag)
		m.release()
		return message{}, err
	}
	cost := w.grid.Cost(w.places[src], w.places[c.rank], int64(len(m.data)))
	c.advanceTo(m.sendTime + cost)
	c.received.Add(1)
	return m, nil
}

// Recv blocks for the next message from rank src with the given tag,
// advancing this rank's virtual clock to send-time + wire cost. Messages
// with other tags from the same source are delivered in order per tag
// matching MPI non-overtaking semantics within a (src,dst,tag) triple; a
// mismatched tag at the queue head is an error (the labs use disjoint tags).
// A Recv with no matching sender aborts with ErrCancelled when the world's
// context dies. The returned slice is freshly allocated and owned by the
// caller; use RecvInto to reuse a buffer instead.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	m, err := c.recvMsg(src, tag)
	if err != nil {
		return nil, err
	}
	if m.pooled == nil {
		return m.data, nil
	}
	out := make([]byte, len(m.data))
	copy(out, m.data)
	m.release()
	return out, nil
}

// RecvInto is Recv without the allocation: the payload is appended to
// buf[:0] — reusing buf's backing array when its capacity suffices — and
// the resulting slice is returned. The steady state of a Send/RecvInto pair
// allocates nothing.
func (c *Comm) RecvInto(src, tag int, buf []byte) ([]byte, error) {
	m, err := c.recvMsg(src, tag)
	if err != nil {
		return nil, err
	}
	out := append(buf[:0], m.data...)
	m.release()
	return out, nil
}

// --- typed convenience wrappers -------------------------------------------

// SendFloats sends a float64 slice, encoding it straight into the pooled
// message buffer (no intermediate encode allocation).
func (c *Comm) SendFloats(dst, tag int, v []float64) error {
	w := c.world
	if dst < 0 || dst >= w.size {
		return fmt.Errorf("%w: dst %d", ErrBadRank, dst)
	}
	if w.closed.Load() {
		return ErrWorldClosed
	}
	m := message{tag: tag}
	if len(v) > 0 {
		m.pooled = leaseBuf(8 * len(v))
		encodeFloatsInto(m.pooled.b, v)
		m.data = m.pooled.b
	}
	return c.deliver(dst, m, int64(8*len(v)))
}

// recvFloatsInto receives a float vector of exactly len(dst) elements from
// src into dst. A frame of any other length — including the zero-length
// frames a tag-space bug could produce — is a clean error, never a panic.
func (c *Comm) recvFloatsInto(src, tag int, dst []float64) error {
	m, err := c.recvMsg(src, tag)
	if err != nil {
		return err
	}
	if len(m.data) != 8*len(dst) {
		n := len(m.data)
		m.release()
		return fmt.Errorf("mpi: rank %d: float frame from %d is %d bytes, want %d", c.rank, src, n, 8*len(dst))
	}
	decodeFloatsInto(dst, m.data)
	m.release()
	return nil
}
