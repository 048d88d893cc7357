package cluster

import (
	"math/bits"

	"repro/internal/topology"
)

// freeSet is a bitmap over flat node ranks with a cached population count.
// It is the cluster's incrementally-maintained free-node index: membership
// flips are O(1), the count is O(1), and enumerating the members in flat
// order is O(words + members) — no map iteration, no sort. The cluster keeps
// one freeSet for all free nodes and a second for the free GPU nodes, so
// listing the free (GPU) nodes reads one word per 64 nodes plus the
// members, never every node's state.
type freeSet struct {
	words []uint64
	count int
}

func newFreeSet(n int) freeSet {
	return freeSet{words: make([]uint64, (n+63)/64)}
}

// set adds flat rank i; it is idempotent and keeps count exact.
func (f *freeSet) set(i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if f.words[w]&b == 0 {
		f.words[w] |= b
		f.count++
	}
}

// clear removes flat rank i; it is idempotent and keeps count exact.
func (f *freeSet) clear(i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if f.words[w]&b != 0 {
		f.words[w] &^= b
		f.count--
	}
}

// has reports membership of flat rank i.
func (f *freeSet) has(i int) bool {
	return f.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// appendIDs appends every member id to out in flat order and returns the
// extended slice.
func (f *freeSet) appendIDs(out []topology.NodeID, grid *topology.Grid) []topology.NodeID {
	for wi, w := range f.words {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			out = append(out, grid.NodeAt(i))
		}
	}
	return out
}
