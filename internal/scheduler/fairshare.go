package scheduler

import (
	"container/heap"
	"errors"

	"repro/internal/jobs"
)

// Weighted deficit fair-share.
//
// Queued jobs are grouped into per-owner lanes (FIFO within a lane). Each
// lane carries a virtual time: dispatching a job advances the lane's clock by
// ranks/weight, so a heavy user's lane ages fast and a high-weight user's
// lane ages slowly. Each dispatch goes to the lane with the greatest deficit
// — the lane whose virtual time lags the scheduler's clock the most, i.e.
// the minimum-vtime lane. The scheduler's clock (vclock) tracks the virtual
// time of the last lane served, and a lane that was idle (or is brand new)
// is floored to it on activation, so idle time is never banked into a burst
// and a freshly active lane competes at the current service level rather
// than replaying history. This is start-time fair queuing: every backlogged
// lane is served within one maximal-cost round of any other, which bounds
// any owner's wait regardless of how many jobs a competitor floods in, and
// owners receive capacity proportional to weight under contention.
//
// The pass is work-conserving: the deficit decides order, never eligibility,
// so a sole backlogged lane can absorb the entire cluster in one tick.

// Tenant is the scheduler's read-side view of the tenancy accountant.
// Implementations must be safe for concurrent use; calls happen on the
// dispatch path.
type Tenant interface {
	// Weight returns the user's fair-share weight; values < 1 mean 1.
	Weight(user string) int64
	// StepsRemaining returns how much of the user's VM step budget is left.
	// capped is false when the user has no budget (unlimited).
	StepsRemaining(user string) (remaining int64, capped bool)
	// ChargeSteps adds n executed VM steps to the user's total.
	ChargeSteps(user string, n int64)
}

// errStepBudget is the rank error, and so the run's cause, marking a run
// halted because the owner's tenancy step budget ran dry (distinct from the
// per-job budget, which surfaces the VM's own error).
var errStepBudget = errors.New("scheduler: user step budget exhausted")

// budgetExhaustedMsg is the failure reason recorded on the job; the portal
// maps it to the budget_exhausted error code.
const budgetExhaustedMsg = "user step budget exhausted"

const (
	// vtimeScale keeps ranks/weight divisions in integer arithmetic with
	// enough resolution that weight ratios up to 2^16 stay exact.
	vtimeScale = 1 << 16
	// maxBlockedPerLane caps how many backfill probes one lane gets per
	// pass, so a single owner's 10k-job backlog of unplaceable jobs cannot
	// turn every pass into a 10k-entry walk.
	maxBlockedPerLane = 32
)

// ownerLane is one owner's queued backlog plus fair-share clock.
type ownerLane struct {
	owner   string
	vtime   int64       // virtual finish time of the lane's last dispatch
	seq     uint64      // creation order; deterministic tie-break
	jobs    []*jobs.Job // this pass's queued jobs, submission order
	next    int         // cursor into jobs
	blocked int         // consecutive blocked probes this pass
	idx     int         // heap index
}

// laneHeap orders lanes by virtual time (min first = greatest deficit),
// breaking ties by creation order so interleavings are deterministic.
type laneHeap []*ownerLane

func (h laneHeap) Len() int { return len(h) }
func (h laneHeap) Less(i, j int) bool {
	if h[i].vtime != h[j].vtime {
		return h[i].vtime < h[j].vtime
	}
	return h[i].seq < h[j].seq
}
func (h laneHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *laneHeap) Push(x any) {
	l := x.(*ownerLane)
	l.idx = len(*h)
	*h = append(*h, l)
}
func (h *laneHeap) Pop() any {
	old := *h
	n := len(old)
	l := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return l
}

// weightOf resolves a user's fair-share weight, defaulting to 1.
func (s *Scheduler) weightOf(user string) int64 {
	if s.tenant != nil {
		if w := s.tenant.Weight(user); w > 0 {
			return w
		}
	}
	return 1
}

// tickFair runs one dispatch pass: group the queued-index into per-owner
// lanes, then repeatedly serve the greatest-deficit lane until nothing more
// fits. Within a lane jobs go in submission order; across lanes the deficit
// decides. Without backfill a blocked job ends the pass, so no later job
// jumps the head of the fair order; with it the pass skips the blocked job
// and probes deeper into its lane, up to maxBlockedPerLane blocked jobs.
func (s *Scheduler) tickFair() int {
	s.laneMu.Lock()
	defer s.laneMu.Unlock()
	// Refill each lane from the queued-index. Job pointers are only read
	// here (Spec is immutable after submit); tryStart re-verifies state.
	for _, l := range s.lanes {
		l.jobs = l.jobs[:0]
		l.next = 0
		l.blocked = 0
	}
	s.store.ScanQueued(func(job *jobs.Job) {
		owner := job.Spec.Owner
		l := s.lanes[owner]
		if l == nil {
			s.laneSeq++
			l = &ownerLane{owner: owner, vtime: s.vclock, seq: s.laneSeq}
			s.lanes[owner] = l
		}
		l.jobs = append(l.jobs, job)
	})
	// Activate backlogged lanes; drop drained ones entirely — keeping their
	// old vtime around would only matter for banking, which the activation
	// floor below deliberately forbids.
	h := make(laneHeap, 0, len(s.lanes))
	for owner, l := range s.lanes {
		if len(l.jobs) == 0 {
			delete(s.lanes, owner)
			continue
		}
		if l.vtime < s.vclock {
			l.vtime = s.vclock
		}
		h = append(h, l)
	}
	heap.Init(&h)
	started := 0
	for h.Len() > 0 {
		l := h[0]
		switch s.tryStart(l.jobs[l.next]) {
		case startedJob:
			started++
			s.vclock = l.vtime // start tag of the lane just served
			cost := int64(l.jobs[l.next].Spec.Ranks) * vtimeScale / s.weightOf(l.owner)
			if cost < 1 {
				cost = 1
			}
			l.vtime += cost
			l.next++
			l.blocked = 0
			if l.next >= len(l.jobs) {
				heap.Pop(&h)
			} else {
				heap.Fix(&h, 0)
			}
		case skippedJob:
			// Gone or claimed elsewhere; no service charge.
			l.next++
			if l.next >= len(l.jobs) {
				heap.Pop(&h)
			}
		case blockedJob:
			if !s.backfill {
				return started // the fair-order head blocks the pass
			}
			l.next++
			l.blocked++
			if l.next >= len(l.jobs) || l.blocked >= maxBlockedPerLane {
				heap.Pop(&h) // this lane is done probing for the pass
			}
		}
	}
	return started
}
