package jobs

import (
	"sync"
	"time"

	"repro/internal/topology"
)

// FeedEntry is one entry of the activity feed served at /api/cluster/events —
// the teaching aid that lets students watch the distributor queue,
// allocate, compile, run and release their jobs. The store records every
// lifecycle step itself, with the entered state's name as the kind; the
// scheduler adds the placement facts only it knows ("allocated",
// "released") through Note.
type FeedEntry struct {
	// Seq numbers entries from 0 in the order they were recorded.
	Seq  int64
	Time time.Time
	Kind string
	// JobID is the subject job.
	JobID string
	// Nodes is the allocation, on "allocated" entries.
	Nodes []topology.NodeID
	// Detail is the failure or cancel reason, or the placement policy on
	// "allocated" entries.
	Detail string
}

// feedCap is how many recent entries the feed retains.
const feedCap = 256

// feed is a fixed ring of the most recent entries; a new entry overwrites
// the oldest in place.
type feed struct {
	mu   sync.Mutex
	ring [feedCap]FeedEntry
	next int64 // Seq of the next entry
}

func (f *feed) add(e FeedEntry) {
	f.mu.Lock()
	e.Seq = f.next
	f.ring[f.next%feedCap] = e
	f.next++
	f.mu.Unlock()
}

// since returns the retained entries with Seq >= seq, oldest first.
func (f *feed) since(seq int64) []FeedEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq = max(seq, f.next-feedCap, 0)
	if seq >= f.next {
		return nil
	}
	out := make([]FeedEntry, 0, f.next-seq)
	for ; seq < f.next; seq++ {
		out = append(out, f.ring[seq%feedCap])
	}
	return out
}

// Note records in the activity feed a fact the store's state machine
// cannot know: "allocated", with the nodes (copied) and the placement
// policy as detail, or "released".
func (s *Store) Note(id, kind string, nodes []topology.NodeID, detail string) {
	e := FeedEntry{Time: s.clk.Now(), Kind: kind, JobID: id, Detail: detail}
	if len(nodes) > 0 {
		e.Nodes = append([]topology.NodeID(nil), nodes...)
	}
	s.feed.add(e)
}

// Feed returns the activity feed's entries with sequence number >= seq
// (0 for everything retained), oldest first. The feed keeps the last 256
// entries.
func (s *Store) Feed(seq int64) []FeedEntry { return s.feed.since(seq) }
