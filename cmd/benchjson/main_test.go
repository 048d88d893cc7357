package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

// encode parses one benchmark line and returns its entry as benchjson
// writes it.
func encode(t *testing.T, line string) map[string]any {
	t.Helper()
	entries, err := parse(bufio.NewScanner(strings.NewReader(line + "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("parsed %d entries from %q", len(entries), line)
	}
	var out map[string]map[string]any
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for _, e := range out {
		return e
	}
	return nil
}

func TestLineWithoutMemoryColumnsOmitsThem(t *testing.T) {
	e := encode(t, "BenchmarkWALAppend/fsync=never/batch=16-2   \t  100000\t     10123 ns/op")
	for _, key := range []string{"bytes_per_op", "allocs_per_op"} {
		if _, ok := e[key]; ok {
			t.Errorf("%s written for a line that did not measure it: %v", key, e)
		}
	}
	if e["ns_per_op"] != 10123.0 || e["iterations"] != 100000.0 {
		t.Errorf("entry = %v", e)
	}
}

func TestZeroMemoryColumnsAreKept(t *testing.T) {
	e := encode(t, "BenchmarkHTTPLanguages-2   \t   20000\t       812.5 ns/op\t       0 B/op\t       0 allocs/op")
	if v, ok := e["bytes_per_op"]; !ok || v != 0.0 {
		t.Errorf("bytes_per_op = %v (present %v), want 0", v, ok)
	}
	if v, ok := e["allocs_per_op"]; !ok || v != 0.0 {
		t.Errorf("allocs_per_op = %v (present %v), want 0", v, ok)
	}
}

func TestReportMetricLandsInExtra(t *testing.T) {
	e := encode(t, "BenchmarkSchedulerThroughput/grid=1024-2  \t       5\t 50331877 ns/op\t     20299 jobs/s\t       175.0 µs/pass-p50\t12000000 B/op\t  148000 allocs/op")
	extra, _ := e["extra"].(map[string]any)
	if extra["jobs/s"] != 20299.0 || extra["µs/pass-p50"] != 175.0 {
		t.Errorf("extra = %v", e["extra"])
	}
	if e["bytes_per_op"] != 12000000.0 || e["allocs_per_op"] != 148000.0 {
		t.Errorf("entry = %v", e)
	}
}

// TestRepeatedBenchmarkKeepsEverySample: under go test -count 3 one name
// appears on three lines, and the entry is their median with n and the
// range of ns/op, not whichever line came last.
func TestRepeatedBenchmarkKeepsEverySample(t *testing.T) {
	in := "BenchmarkVMLab1-2   \t     300\t   3900000 ns/op\t         7.40 ns/step\t    5000 B/op\t      40 allocs/op\n" +
		"BenchmarkVMLab1-2   \t     400\t   3100000 ns/op\t         5.90 ns/step\t    4800 B/op\t      40 allocs/op\n" +
		"BenchmarkVMLab1-2   \t     350\t   3500000 ns/op\t         6.60 ns/step\t    5200 B/op\t      41 allocs/op\n"
	entries, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := entries["BenchmarkVMLab1"]
	if !ok || len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	if e.N != 3 || e.NsPerOp != 3500000 || e.NsPerOpMin != 3100000 || e.NsPerOpMax != 3900000 || e.Iterations != 350 {
		t.Errorf("entry = %+v, want n 3, ns/op 3500000 in [3100000, 3900000], 350 iterations", e)
	}
	if e.Extra["ns/step"] != 6.60 {
		t.Errorf("ns/step = %v, want the median 6.60", e.Extra["ns/step"])
	}
	if e.BytesPerOp == nil || *e.BytesPerOp != 5000 || e.AllocsPerOp == nil || *e.AllocsPerOp != 40 {
		t.Errorf("memory columns = %v B/op, %v allocs/op, want medians 5000 and 40", e.BytesPerOp, e.AllocsPerOp)
	}
	one := encode(t, "BenchmarkVMLab1-2   \t     300\t   3900000 ns/op")
	if one["n"] != 1.0 || one["ns_per_op_min"] != 3900000.0 || one["ns_per_op_max"] != 3900000.0 {
		t.Errorf("single line = %v, want n 1 and its ns/op as min and max", one)
	}
}
