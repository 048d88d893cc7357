package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topology"
)

func testGrid(t *testing.T) *topology.Grid {
	t.Helper()
	g, err := topology.New(4, 16, topology.Params{
		IntraNode:      200 * time.Nanosecond,
		IntraSegment:   50 * time.Microsecond,
		InterSegment:   400 * time.Microsecond,
		BytesPerSecond: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// placeRanks spreads n ranks over nodes, one per node in flat order.
func placeRanks(g *topology.Grid, n int) []topology.NodeID {
	places := make([]topology.NodeID, n)
	for i := range places {
		places[i] = g.NodeAt(i % g.TotalNodes())
	}
	return places
}

func newWorld(t *testing.T, n int, opts Options) *World {
	t.Helper()
	g := testGrid(t)
	w, err := New(g, placeRanks(g, n), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// runRanks runs fn for every rank concurrently and propagates errors.
func runRanks(t *testing.T, w *World, fn func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, w.Size())
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := w.Comm(r)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = fn(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	g := testGrid(t)
	if _, err := New(g, nil, Options{}); err == nil {
		t.Fatal("empty placement accepted")
	}
	if _, err := New(g, []topology.NodeID{{Segment: 99, Index: 0}}, Options{}); err == nil {
		t.Fatal("invalid placement accepted")
	}
}

func TestSendRecvPointToPoint(t *testing.T) {
	w := newWorld(t, 2, Options{})
	runRanks(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		b, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(b) != "hello" {
			return fmt.Errorf("got %q", b)
		}
		return nil
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := newWorld(t, 2, Options{})
	payload := []byte("orig")
	runRanks(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, payload); err != nil {
				return err
			}
			payload[0] = 'X' // mutate after send
			return nil
		}
		b, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(b) != "orig" && string(b) != "Xrig" {
			return fmt.Errorf("got %q", b)
		}
		// With the copy, the received bytes are always the original.
		if string(b) != "orig" {
			return errors.New("send aliased the caller's buffer")
		}
		return nil
	})
}

func TestSelfSendWorksViaBuffering(t *testing.T) {
	w := newWorld(t, 1, Options{})
	c, _ := w.Comm(0)
	if err := c.Send(0, 3, []byte("me")); err != nil {
		t.Fatal(err)
	}
	b, err := c.Recv(0, 3)
	if err != nil || string(b) != "me" {
		t.Fatalf("self recv = %q, %v", b, err)
	}
}

func TestTagMismatchIsError(t *testing.T) {
	w := newWorld(t, 1, Options{})
	c, _ := w.Comm(0)
	c.Send(0, 1, nil)
	if _, err := c.Recv(0, 2); err == nil {
		t.Fatal("tag mismatch accepted")
	}
}

func TestRankValidation(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c, _ := w.Comm(0)
	if err := c.Send(5, 0, nil); !errors.Is(err, ErrBadRank) {
		t.Fatalf("send to bad rank err = %v", err)
	}
	if _, err := c.Recv(-1, 0); !errors.Is(err, ErrBadRank) {
		t.Fatalf("recv from bad rank err = %v", err)
	}
	if _, err := w.Comm(9); !errors.Is(err, ErrBadRank) {
		t.Fatalf("Comm(9) err = %v", err)
	}
	if _, err := w.Place(9); !errors.Is(err, ErrBadRank) {
		t.Fatalf("Place(9) err = %v", err)
	}
}

func TestClosedWorld(t *testing.T) {
	w := newWorld(t, 2, Options{})
	w.Close()
	w.Close() // idempotent
	c, _ := w.Comm(0)
	if err := c.Send(1, 0, nil); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("send on closed world err = %v", err)
	}
	if _, err := c.Recv(1, 0); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("recv on closed world err = %v", err)
	}
}

// fifos counts the pair queues a world has created.
func fifos(w *World) int {
	n := 0
	for i := range w.queues {
		if w.queues[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestWorldCreatesOnlyUsedFIFOs: a pair's queue exists once the pair has
// carried a message, so a 16-rank allreduce builds the 30 queues its
// algorithm uses, not all 256, wherever the ranks sit, and a world whose
// ranks never communicate builds none.
func TestWorldCreatesOnlyUsedFIFOs(t *testing.T) {
	g := testGrid(t)
	const size = 16
	oneSegment := placeRanks(g, size)
	fourSegments := make([]topology.NodeID, size)
	for i := range fourSegments {
		fourSegments[i] = topology.NodeID{Segment: i % g.Segments(), Index: i / g.Segments()}
	}
	for _, algo := range []Algorithm{Linear, Tree, Hier} {
		for pname, places := range map[string][]topology.NodeID{"one-segment": oneSegment, "four-segments": fourSegments} {
			w, err := New(g, places, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if n := fifos(w); n != 0 {
				t.Fatalf("%s/%s: fresh world has %d queues, want 0", algo, pname, n)
			}
			runRanks(t, w, func(c *Comm) error {
				sum, err := c.AllReduce(OpSum, float64(c.Rank()))
				if err == nil && sum != size*(size-1)/2 {
					err = fmt.Errorf("allreduce sum %v", sum)
				}
				return err
			})
			if n := fifos(w); n != 30 {
				t.Errorf("%s/%s: allreduce created %d queues, want 30", algo, pname, n)
			}
			w.Close()
		}
	}

	w := newWorld(t, size, Options{})
	runRanks(t, w, func(c *Comm) error {
		c.Tick(time.Microsecond)
		return nil
	})
	if n := fifos(w); n != 0 {
		t.Fatalf("ranks that never communicate created %d queues, want 0", n)
	}
}

// TestFIFOFirstUseRace starts a pair's sender and receiver together on a
// fresh world, many times over. Both ends must land on one queue: were
// they to create one each, the receive would wait until the world's
// deadline. Run under -race.
func TestFIFOFirstUseRace(t *testing.T) {
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w := newWorld(t, 2, Options{Ctx: ctx})
		var arrived atomic.Int32
		runRanks(t, w, func(c *Comm) error {
			for arrived.Add(1); arrived.Load() < 2; {
				runtime.Gosched()
			}
			if c.Rank() == 0 {
				return c.Send(1, 3, []byte{byte(i)})
			}
			got, err := c.Recv(0, 3)
			if err == nil && (len(got) != 1 || got[0] != byte(i)) {
				err = fmt.Errorf("received %v", got)
			}
			return err
		})
		cancel()
		if n := fifos(w); n != 1 {
			t.Fatalf("round %d: %d queues for one pair", i, n)
		}
	}
}

func TestVirtualTimeNUMAOrdering(t *testing.T) {
	// A message between segments must advance the receiver's clock more
	// than a message within a segment — Lab 3's observable.
	g := testGrid(t)
	places := []topology.NodeID{
		{Segment: 0, Index: 0}, // rank 0
		{Segment: 0, Index: 1}, // rank 1: same segment as 0
		{Segment: 2, Index: 0}, // rank 2: remote from 0
	}
	w, err := New(g, places, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	runRanks(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 0, []byte("x")); err != nil {
				return err
			}
			return c.Send(2, 0, []byte("x"))
		case 1, 2:
			_, err := c.Recv(0, 0)
			return err
		}
		return nil
	})
	c1, _ := w.Comm(1)
	c2, _ := w.Comm(2)
	if !(c1.Elapsed() < c2.Elapsed()) {
		t.Fatalf("NUMA violated: near recv %v, far recv %v", c1.Elapsed(), c2.Elapsed())
	}
}

func TestTickAdvancesOnlyLocalClock(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	c0.Tick(time.Second)
	c0.Tick(-time.Second) // no-op
	if c0.Elapsed() != time.Second || c1.Elapsed() != 0 {
		t.Fatalf("elapsed: rank0=%v rank1=%v", c0.Elapsed(), c1.Elapsed())
	}
}

func TestVirtualTimePropagatesThroughMessages(t *testing.T) {
	w := newWorld(t, 2, Options{})
	runRanks(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Tick(time.Hour) // rank 0 computes for an hour before sending
			return c.Send(1, 0, nil)
		}
		_, err := c.Recv(0, 0)
		return err
	})
	c1, _ := w.Comm(1)
	if c1.Elapsed() < time.Hour {
		t.Fatalf("receiver clock %v did not inherit sender's compute time", c1.Elapsed())
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := newWorld(t, 8, Options{})
	runRanks(t, w, func(c *Comm) error {
		c.Tick(time.Duration(c.Rank()) * time.Second)
		return c.Barrier()
	})
	// After the barrier, every rank's clock is at least the slowest
	// rank's pre-barrier time.
	for r := 0; r < 8; r++ {
		c, _ := w.Comm(r)
		if c.Elapsed() < 7*time.Second {
			t.Fatalf("rank %d clock %v below barrier convergence", r, c.Elapsed())
		}
	}
}

func testBcast(t *testing.T, algo Algorithm, size, root int) {
	t.Helper()
	w := newWorld(t, size, Options{Algorithm: algo})
	payload := []byte("broadcast-payload")
	results := make([][]byte, size)
	runRanks(t, w, func(c *Comm) error {
		var in []byte
		if c.Rank() == root {
			in = payload
		}
		out, err := c.Bcast(root, in)
		if err != nil {
			return err
		}
		results[c.Rank()] = out
		return nil
	})
	for r, got := range results {
		if string(got) != string(payload) {
			t.Fatalf("algo=%v size=%d root=%d rank %d got %q", algo, size, root, r, got)
		}
	}
}

func TestBcastLinear(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		testBcast(t, Linear, size, 0)
	}
	testBcast(t, Linear, 5, 3) // non-zero root
}

func TestBcastTree(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 16} {
		testBcast(t, Tree, size, 0)
	}
	testBcast(t, Tree, 6, 2)
	testBcast(t, Tree, 9, 8)
}

func testReduce(t *testing.T, algo Algorithm, size, root int, op Op, want float64) {
	t.Helper()
	w := newWorld(t, size, Options{Algorithm: algo})
	var got float64
	runRanks(t, w, func(c *Comm) error {
		v, err := c.Reduce(root, op, float64(c.Rank()+1))
		if err != nil {
			return err
		}
		if c.Rank() == root {
			got = v
		}
		return nil
	})
	if got != want {
		t.Fatalf("algo=%v size=%d op=%d: reduce = %v, want %v", algo, size, int(op), got, want)
	}
}

func TestReduceOps(t *testing.T) {
	// values are 1..8
	testReduce(t, Linear, 8, 0, OpSum, 36)
	testReduce(t, Linear, 8, 0, OpMax, 8)
	testReduce(t, Linear, 8, 0, OpMin, 1)
	testReduce(t, Linear, 4, 0, OpProd, 24)
	testReduce(t, Tree, 8, 0, OpSum, 36)
	testReduce(t, Tree, 7, 0, OpSum, 28)
	testReduce(t, Tree, 5, 2, OpMax, 5)
	testReduce(t, Tree, 1, 0, OpSum, 1)
}

func TestTreeMatchesLinearProperty(t *testing.T) {
	// Property: tree and linear reduce agree for any size ≤ 12.
	f := func(sz uint8) bool {
		size := int(sz)%12 + 1
		sum := float64(size*(size+1)) / 2
		var got [2]float64
		for i, algo := range []Algorithm{Linear, Tree} {
			w := newWorld(t, size, Options{Algorithm: algo})
			var mu sync.Mutex
			var wg sync.WaitGroup
			for r := 0; r < size; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c, _ := w.Comm(r)
					v, err := c.Reduce(0, OpSum, float64(r+1))
					if err == nil && r == 0 {
						mu.Lock()
						got[i] = v
						mu.Unlock()
					}
				}(r)
			}
			wg.Wait()
			w.Close()
		}
		return got[0] == sum && got[1] == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	w := newWorld(t, 6, Options{Algorithm: Tree})
	results := make([]float64, 6)
	runRanks(t, w, func(c *Comm) error {
		v, err := c.AllReduce(OpSum, 2.0)
		results[c.Rank()] = v
		return err
	})
	for r, v := range results {
		if v != 12 {
			t.Fatalf("rank %d allreduce = %v, want 12", r, v)
		}
	}
}

func TestGatherScatter(t *testing.T) {
	const size = 5
	w := newWorld(t, size, Options{})
	var gathered []float64
	scattered := make([]float64, size)
	runRanks(t, w, func(c *Comm) error {
		g, err := c.Gather(0, float64(c.Rank()*10))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			gathered = g
		}
		var vals []float64
		if c.Rank() == 0 {
			vals = []float64{100, 101, 102, 103, 104}
		}
		v, err := c.Scatter(0, vals)
		if err != nil {
			return err
		}
		scattered[c.Rank()] = v
		return nil
	})
	for r := 0; r < size; r++ {
		if gathered[r] != float64(r*10) {
			t.Fatalf("gathered[%d] = %v", r, gathered[r])
		}
		if scattered[r] != float64(100+r) {
			t.Fatalf("scattered[%d] = %v", r, scattered[r])
		}
	}
}

func TestScatterLengthValidation(t *testing.T) {
	w := newWorld(t, 3, Options{})
	errCh := make(chan error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, _ := w.Comm(r)
			if r == 0 {
				_, err := c.Scatter(0, []float64{1}) // wrong length
				errCh <- err
				// Unblock the other ranks by closing the world.
				w.Close()
				return
			}
			c.Scatter(0, nil)
		}(r)
	}
	wg.Wait()
	if err := <-errCh; err == nil {
		t.Fatal("short scatter accepted")
	}
}

func TestTreeBcastFewerSendsAtRoot(t *testing.T) {
	// The ablation claim: with P ranks, linear root sends P-1 messages,
	// tree root sends ~log2(P).
	const size = 16
	counts := map[Algorithm]int64{}
	for _, algo := range []Algorithm{Linear, Tree} {
		w := newWorld(t, size, Options{Algorithm: algo})
		runRanks(t, w, func(c *Comm) error {
			_, err := c.Bcast(0, []byte("x"))
			return err
		})
		c0, _ := w.Comm(0)
		counts[algo] = c0.Sent()
	}
	if counts[Linear] != size-1 {
		t.Fatalf("linear root sent %d, want %d", counts[Linear], size-1)
	}
	if counts[Tree] != int64(math.Log2(size)) {
		t.Fatalf("tree root sent %d, want %d", counts[Tree], int(math.Log2(size)))
	}
}

func TestStatsCounters(t *testing.T) {
	w := newWorld(t, 2, Options{})
	runRanks(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 100))
		}
		_, err := c.Recv(0, 0)
		return err
	})
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	if c0.Sent() != 1 || c0.BytesOut() != 100 || c1.Received() != 1 {
		t.Fatalf("stats: sent=%d bytes=%d recv=%d", c0.Sent(), c0.BytesOut(), c1.Received())
	}
	if w.MaxElapsed() == 0 {
		t.Fatal("MaxElapsed = 0 after communication")
	}
}

func TestFloatEncodingRoundTripProperty(t *testing.T) {
	f := func(v []float64) bool {
		b := encodeFloats(v)
		back, err := decodeFloats(b)
		if err != nil || len(back) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFloats(make([]byte, 7)); err == nil {
		t.Fatal("ragged float payload accepted")
	}
}
