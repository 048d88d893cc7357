package scheduler

import (
	"fmt"

	"repro/internal/topology"
)

// Policy selects which free nodes a job gets. Implementations must be pure:
// same inputs, same choice.
type Policy interface {
	// Name identifies the policy in logs and benches.
	Name() string
	// Select picks n nodes from free (already in flat order). It returns
	// nil when the request cannot be satisfied. The scheduler reuses free
	// for its next placement, so Select must return fresh storage and not
	// keep free.
	Select(free []topology.NodeID, n int) []topology.NodeID
}

// PackPolicy fills nodes in flat order, packing a job into as few segments
// as possible — good locality for tightly-coupled MPI jobs, since
// intra-segment links are faster than the inter-segment hop.
type PackPolicy struct{}

// Name returns "pack".
func (PackPolicy) Name() string { return "pack" }

// Select prefers the first segment whose free run can hold the whole job, so
// an MPI world lands intra-segment whenever any segment fits it; only a job
// too big for every segment falls back to the first n free nodes in flat
// order. Because free is flat-ordered, each segment's nodes form one
// contiguous run and the scan is a single pass, the same trick SpreadPolicy
// uses.
func (PackPolicy) Select(free []topology.NodeID, n int) []topology.NodeID {
	if n <= 0 || len(free) < n {
		return nil
	}
	for i := 0; i < len(free); {
		j := i + 1
		for j < len(free) && free[j].Segment == free[i].Segment {
			j++
		}
		if j-i >= n {
			return append([]topology.NodeID(nil), free[i:i+n]...)
		}
		i = j
	}
	return append([]topology.NodeID(nil), free[:n]...)
}

// SpreadPolicy round-robins across segments, balancing load (and heat) at
// the cost of more inter-segment traffic.
type SpreadPolicy struct{}

// Name returns "spread".
func (SpreadPolicy) Name() string { return "spread" }

// Select interleaves segments: one node from each segment in turn. Because
// free is in flat order, each segment's nodes form one contiguous run, so
// bucketing is a single boundary scan — no per-call map, no sort.
func (SpreadPolicy) Select(free []topology.NodeID, n int) []topology.NodeID {
	if n <= 0 || len(free) < n {
		return nil
	}
	// spans[k] is the half-open range of free holding segment k's run;
	// segments appear in ascending order because free is flat-ordered.
	type span struct{ cur, end int }
	var spans []span
	for i := 0; i < len(free); {
		j := i + 1
		for j < len(free) && free[j].Segment == free[i].Segment {
			j++
		}
		spans = append(spans, span{i, j})
		i = j
	}
	out := make([]topology.NodeID, 0, n)
	for {
		progressed := false
		for k := range spans {
			if spans[k].cur == spans[k].end {
				continue
			}
			out = append(out, free[spans[k].cur])
			spans[k].cur++
			progressed = true
			if len(out) == n {
				return out
			}
		}
		if !progressed {
			return nil // cannot happen when len(free) >= n, but stay safe
		}
	}
}

// PolicyByName resolves a policy identifier.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "pack":
		return PackPolicy{}, nil
	case "spread":
		return SpreadPolicy{}, nil
	default:
		return nil, fmt.Errorf("scheduler: unknown policy %q", name)
	}
}
