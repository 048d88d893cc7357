// Command benchjson converts `go test -bench` output on stdin into a JSON
// object on stdout (or -o file), keyed by benchmark name:
//
//	{"BenchmarkVMTightLoop": {"ns_per_op": 434311, "allocs_per_op": 6, "bytes_per_op": 9840, "iterations": 2961}}
//
// The -P suffix goroutine count (BenchmarkX-8) is stripped so keys are stable
// across machines. bytes_per_op and allocs_per_op appear only when the line
// carries them (-benchmem or b.ReportAllocs): a field that was not measured
// is omitted, never written as 0. `make bench-vm` uses it to write
// BENCH_vm.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark's measurements. BytesPerOp and AllocsPerOp are nil
// when the line did not report them. Extra holds custom metrics reported
// via b.ReportMetric (e.g. "jobs/s", "µs/pass-p50"), keyed by their unit.
type Entry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func parse(lines *bufio.Scanner) (map[string]Entry, error) {
	out := make(map[string]Entry)
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(lines.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %v", lines.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", lines.Text(), err)
		}
		e := Entry{Iterations: iters, NsPerOp: ns}
		for _, f := range strings.Split(m[4], "\t") {
			f = strings.TrimSpace(f)
			switch {
			case f == "":
			case strings.HasSuffix(f, " B/op"):
				e.BytesPerOp = parseCount(strings.TrimSuffix(f, " B/op"))
			case strings.HasSuffix(f, " allocs/op"):
				e.AllocsPerOp = parseCount(strings.TrimSuffix(f, " allocs/op"))
			default:
				// A custom metric from b.ReportMetric: "<value> <unit>".
				val, unit, ok := strings.Cut(f, " ")
				if !ok {
					continue
				}
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					continue
				}
				if e.Extra == nil {
					e.Extra = make(map[string]float64)
				}
				e.Extra[unit] = v
			}
		}
		out[m[1]] = e
	}
	return out, lines.Err()
}

// parseCount reads a B/op or allocs/op column, or returns nil when it is
// not a count.
func parseCount(s string) *int64 {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return nil
	}
	return &n
}

func main() {
	outPath := flag.String("o", "", "write JSON to this file instead of stdout")
	flag.Parse()
	entries, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	// encoding/json emits map keys sorted, so the file is diffable run to run.
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *outPath == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
