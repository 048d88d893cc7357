package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name returns the same counter.
	if r.Counter("jobs_total") != c {
		t.Fatal("counter not interned")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("nodes_free")
	g.Set(64)
	g.Add(-3)
	if g.Value() != 61 {
		t.Fatalf("gauge = %d, want 61", g.Value())
	}
}

func TestRegisterFunc(t *testing.T) {
	r := NewRegistry()
	v := int64(7)
	r.RegisterFunc("live", func() int64 { return v })
	if r.Snapshot()["live"] != 7 {
		t.Fatal("func gauge not read")
	}
	v = 9
	if r.Snapshot()["live"] != 9 {
		t.Fatal("func gauge not recomputed")
	}
}

func TestSnapshotIncludesEverything(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(2)
	r.RegisterFunc("c", func() int64 { return 3 })
	snap := r.Snapshot()
	if snap["a"] != 1 || snap["b"] != 2 || snap["c"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(42)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["x"] != 42 {
		t.Fatalf("decoded = %v", decoded)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits").Inc()
				r.Gauge("depth").Add(1)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Counter("hits").Value() != 8000 {
		t.Fatalf("hits = %d", r.Counter("hits").Value())
	}
}

func TestDefaultRegistryExists(t *testing.T) {
	Default.Counter("smoke").Inc()
	if Default.Snapshot()["smoke"] < 1 {
		t.Fatal("default registry broken")
	}
}

// TestHistogramLabeledFastPath verifies the per-request lookup: the same
// series comes back for repeat calls, distinct label values get distinct
// series, and the already-registered case allocates nothing.
func TestHistogramLabeledFastPath(t *testing.T) {
	r := NewRegistry()
	a := r.HistogramLabeled("req_seconds", "route", "GET /a", nil)
	if got := r.HistogramLabeled("req_seconds", "route", "GET /a", nil); got != a {
		t.Fatal("repeat lookup returned a different series")
	}
	b := r.HistogramLabeled("req_seconds", "route", "GET /b", nil)
	if b == a {
		t.Fatal("distinct label values shared a series")
	}
	if n := len(r.Histograms()); n != 2 {
		t.Fatalf("Histograms() = %d series, want 2", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if r.HistogramLabeled("req_seconds", "route", "GET /a", nil) != a {
			t.Fatal("lookup changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("registered HistogramLabeled lookup allocates %v/op, want 0", allocs)
	}
}
