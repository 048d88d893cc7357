package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a run must hold beyond a percentile before
// that percentile counts as resolved. With fewer, the value is set by a
// handful of outliers and moves from run to run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// ascending samples, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, resolved bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based; the epsilon absorbs float error in q·n
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// dist is a sample set in one unit.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.xs = append(d.xs, v)
	d.sorted = false
}

func (d *dist) merge(o *dist) {
	d.xs = append(d.xs, o.xs...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// q reports the q-quantile as a metric carrying its sample count.
func (d *dist) q(name, unit string, q float64) metric {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	v, ok := percentile(d.xs, q)
	return metric{Name: name, Unit: unit, Value: v, N: len(d.xs), Unresolved: !ok}
}

// median of per-round values: the middle one, or the mean of the middle
// two.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reporting 0 for an empty base rather than NaN, which JSON
// cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported number. N is the sample count behind it (0 where
// the value is a count or a ratio of counters); Unresolved marks a
// percentile with fewer than minBeyond samples beyond it.
type metric struct {
	Name       string
	Unit       string
	Value      float64
	N          int
	Unresolved bool
}
