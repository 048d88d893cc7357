// Command benchjson converts `go test -bench` output on stdin into a JSON
// object on stdout (or -o file), keyed by benchmark name, plus a "host"
// object naming the machine it was measured on:
//
//	{"BenchmarkVMTightLoop": {"n": 5, "iterations": 2961, "ns_per_op": 434311, "ns_per_op_min": 420118, "ns_per_op_max": 471002, "bytes_per_op": 9840, "allocs_per_op": 6},
//	 "host": {"goos": "linux", "goarch": "amd64", "cpu": "Intel(R) Xeon(R) Processor", "go": "go1.24.0", "nproc": 2}}
//
// The -P suffix goroutine count (BenchmarkX-8) is stripped so keys are stable
// across machines. A benchmark that appears on n lines (go test -count n)
// is recorded as the median of each column, with n and the min and max of
// ns_per_op; a single line gives n 1. bytes_per_op and allocs_per_op
// appear only when the lines carry them (-benchmem or b.ReportAllocs): a
// field that was not measured is omitted, never written as 0. goos, goarch
// and cpu come from go test's header lines; go and nproc are the Go version
// and CPU count benchjson itself runs with. Every benchmark key starts with
// "Benchmark", so "host" cannot collide with one. The bench-* make targets
// use it to write the BENCH_*.json files.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Entry is one benchmark's measurements: the median over its N lines of
// each column, and the range of NsPerOp. BytesPerOp and AllocsPerOp are nil
// when the lines did not report them. Extra holds custom metrics reported
// via b.ReportMetric (e.g. "jobs/s", "µs/pass-p50"), keyed by their unit.
type Entry struct {
	N           int                `json:"n"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpMin  float64            `json:"ns_per_op_min"`
	NsPerOpMax  float64            `json:"ns_per_op_max"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Host is the machine a file was measured on.
type Host struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Go     string `json:"go"`
	NProc  int    `json:"nproc"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func parse(lines *bufio.Scanner) (map[string]Entry, Host, error) {
	samples := make(map[string][]Entry)
	host := Host{Go: runtime.Version(), NProc: runtime.NumCPU()}
	for lines.Scan() {
		line := strings.TrimSpace(lines.Text())
		if key, val, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "goos":
				host.GOOS = val
			case "goarch":
				host.GOARCH = val
			case "cpu":
				host.CPU = val
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, host, fmt.Errorf("benchjson: bad iteration count in %q: %v", lines.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, host, fmt.Errorf("benchjson: bad ns/op in %q: %v", lines.Text(), err)
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
		samples[m[1]] = append(samples[m[1]], e)
	}
	out := make(map[string]Entry, len(samples))
	for name, s := range samples {
		out[name] = merge(s)
	}
	return out, host, lines.Err()
}

// record reads go test output and returns the JSON file benchjson writes.
func record(in io.Reader) ([]byte, error) {
	entries, host, err := parse(bufio.NewScanner(in))
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, errors.New("benchjson: no benchmark lines on stdin")
	}
	file := make(map[string]any, len(entries)+1)
	for name, e := range entries {
		file[name] = e
	}
	file["host"] = host
	// encoding/json emits map keys sorted, so the file is diffable run to run.
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// merge folds one benchmark's lines into the median of each column.
func merge(s []Entry) Entry {
	var ns, iters, bytes, allocs []float64
	extra := make(map[string][]float64)
	for _, e := range s {
		ns = append(ns, e.NsPerOp)
		iters = append(iters, float64(e.Iterations))
		if e.BytesPerOp != nil {
			bytes = append(bytes, float64(*e.BytesPerOp))
		}
		if e.AllocsPerOp != nil {
			allocs = append(allocs, float64(*e.AllocsPerOp))
		}
		for unit, v := range e.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	out := Entry{
		N:           len(s),
		Iterations:  int64(median(iters)),
		NsPerOp:     median(ns),
		NsPerOpMin:  slices.Min(ns),
		NsPerOpMax:  slices.Max(ns),
		BytesPerOp:  medianCount(bytes),
		AllocsPerOp: medianCount(allocs),
	}
	if len(extra) > 0 {
		out.Extra = make(map[string]float64, len(extra))
	}
	for unit, vs := range extra {
		out.Extra[unit] = median(vs)
	}
	return out
}

// median returns the middle of xs, or the mean of its two middle values;
// it sorts xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianCount is median for a count column, nil when no line measured it.
func medianCount(xs []float64) *int64 {
	if len(xs) == 0 {
		return nil
	}
	n := int64(median(xs))
	return &n
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
	data, err := record(os.Stdin)
	if err == nil {
		if *outPath == "" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(*outPath, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
