// Package dataprovider owns persistence for the portal's control plane. The
// four state-bearing subsystems — jobs, auth, the per-user VFS and tenancy —
// emit typed records through a Sink into a Provider; the provider decides
// what durability means.
//
// Two providers ship:
//
//   - Memory: discards every record. This is the seed behavior — all state
//     lives in the subsystems' in-memory structures. Core attaches it like
//     any provider, so in memory mode each record is still encoded and then
//     dropped.
//   - Durable: an append-only write-ahead log (length-prefixed, CRC-checked
//     records) plus a periodic snapshot, both pure stdlib. Appends are
//     group-committed: one fsync is amortized over every record that arrived
//     while the previous batch was being written. On boot, Load returns the
//     latest snapshot and the WAL suffix recorded after it; replay stops
//     cleanly at the last valid record, so a torn final write (the crash
//     case) never poisons recovery.
//
// The in-memory structures remain the read path everywhere: providers are
// write-behind journals plus recovery sources, never query engines, so the
// scheduler's hot path is unaffected by the durability mode.
package dataprovider

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Kind tags a record with the subsystem operation it encodes. The numeric
// values are part of the on-disk WAL format and must never be reused.
type Kind uint8

// Record kinds. The payload of each kind is a JSON document defined by the
// emitting subsystem (auth.UserRecord, jobs.SubmitRecord, vfs.WriteRecord,
// ...); the provider treats payloads as opaque bytes.
const (
	// KindUserPut upserts an account (auth.Record payload). Emitted on
	// register, password change and role change. Sessions are deliberately
	// never journaled: they are ephemeral browser state, and a restart
	// logging everyone out is the documented behavior.
	KindUserPut Kind = 1
	// KindJobSubmit records an accepted submission (jobs.SubmitRecord).
	KindJobSubmit Kind = 2
	// KindJobTransition records a lifecycle transition (jobs.TransitionRecord).
	KindJobTransition Kind = 3
	// KindJobRestore re-creates a job at a recorded state (jobs.Snapshot),
	// used by admin restore where the transition history is unavailable.
	KindJobRestore Kind = 4
	// KindVFSWrite records a file create/replace with contents (vfs.WriteRecord).
	KindVFSWrite Kind = 5
	// KindVFSMkdir records a directory creation chain (vfs.MkdirRecord).
	KindVFSMkdir Kind = 6
	// KindVFSRemove records a file or tree deletion (vfs.RemoveRecord).
	KindVFSRemove Kind = 7
	// KindVFSRename records a move/rename (vfs.MoveRecord).
	KindVFSRename Kind = 8
	// KindVFSCopy records a copy (vfs.MoveRecord).
	KindVFSCopy Kind = 9
	// KindTenancyLimits upserts a user's limit overrides (tenancy.LimitsRecord).
	KindTenancyLimits Kind = 10
	// KindTenancySteps records a user's cumulative VM step total as an
	// absolute value (tenancy.StepsRecord); replay is monotonic, so records a
	// snapshot already folded in are no-ops. Disk usage is never journaled:
	// the VFS recounts a home's bytes as its records replay.
	KindTenancySteps Kind = 11
)

// Record is one journaled operation: a kind plus the emitting subsystem's
// serialized payload.
type Record struct {
	Kind Kind
	Data []byte
}

// Journal is the write side the subsystems hold, through a Sink.
// Implementations must be safe for concurrent use.
type Journal interface {
	// AppendAsync enqueues one operation without waiting for it to reach
	// disk; the group committer writes it with the next batch, so no
	// subsystem ever waits on storage. A caller about to acknowledge the
	// operation to a client calls the provider's Sync afterwards: the
	// barrier covers everything enqueued before it.
	AppendAsync(rec Record)
}

// Sink is a subsystem's one path to a journal: an atomically swappable
// Journal plus the record encoding. The zero value has no journal and drops
// every record, which is what replay relies on — core attaches the journals
// only after it, so replayed records are never re-journaled.
type Sink struct {
	j atomic.Pointer[Journal]
}

// Attach points the sink at j; nil detaches it.
func (s *Sink) Attach(j Journal) {
	if j == nil {
		s.j.Store(nil)
		return
	}
	s.j.Store(&j)
}

// Appender is a payload that encodes itself: AppendJSON appends to b the
// bytes json.Marshal produces for the payload. The records every job writes
// (submit, transition, steps) implement it, so Emit journals them without
// reflection; the cold records stay on encoding/json.
type Appender interface {
	AppendJSON(b []byte) []byte
}

// scratch holds the buffers Appender payloads encode into before Emit
// copies the record out at its exact size. A buffer grown past
// maxScratch (a submission with a large stdin) is not kept.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

const maxScratch = 64 << 10

// Emit JSON-encodes payload and enqueues it as one record of the given kind.
// A payload that is an Appender encodes itself; any other goes through
// encoding/json. Without an attached journal the record is dropped.
func (s *Sink) Emit(kind Kind, payload any) {
	j := s.j.Load()
	if j == nil {
		return
	}
	var data []byte
	if a, ok := payload.(Appender); ok {
		buf := scratch.Get().(*[]byte)
		*buf = a.AppendJSON((*buf)[:0])
		data = bytes.Clone(*buf)
		if cap(*buf) <= maxScratch {
			scratch.Put(buf)
		}
	} else {
		var err error
		if data, err = json.Marshal(payload); err != nil {
			return // payloads are the subsystems' own structs; this cannot happen
		}
	}
	(*j).AppendAsync(Record{Kind: kind, Data: data})
}

// Provider is a Journal plus the recovery and maintenance surface.
type Provider interface {
	Journal
	// Sync blocks until every record enqueued before the call is written
	// out (and fsynced, under the "always" policy). The portal calls this
	// after a mutating request succeeds and before the HTTP acknowledgment,
	// so concurrent requests share one flush — the group-commit batch. Once
	// a WAL write or fsync has failed, Sync and Snapshot return that error
	// until a restart recovers the log's valid prefix.
	Sync() error
	// Snapshot captures a full-state image and truncates the WAL. The
	// capture callback runs with appends quiesced, so the image plus the
	// (empty) WAL is exactly the current state; records enqueued after the
	// capture land in the fresh WAL. Replay must be idempotent: a record
	// both folded into a snapshot and retained in the WAL (the crash window
	// between snapshot rename and WAL truncate) must apply cleanly twice.
	Snapshot(capture func() ([]byte, error)) error
	// Load returns the latest snapshot image (nil if none) and the WAL
	// records appended after it, stopping at the last valid record. It
	// hands them out once: a later call returns nothing, so the provider
	// does not keep recovery's state alive. Call it before the first
	// AppendAsync.
	Load() (snapshot []byte, records []Record, err error)
	// Status reports the provider's identity and operational counters.
	Status() Status
	// Close flushes and releases the provider. Records appended after Close
	// are dropped.
	Close() error
}

// Status describes a provider for the admin persistence endpoint.
type Status struct {
	// Mode is "memory" or "durable".
	Mode string `json:"mode"`
	// Dir is the durable provider's directory ("" for memory).
	Dir string `json:"dir,omitempty"`
	// Fsync is the configured fsync policy ("" for memory).
	Fsync string `json:"fsync,omitempty"`
	// WALRecords counts records appended since open (not lifetime).
	WALRecords int64 `json:"wal_records"`
	// WALBytes is the current WAL file size.
	WALBytes int64 `json:"wal_bytes"`
	// Batches counts group commits; WALRecords/Batches is the achieved
	// amortization factor.
	Batches int64 `json:"batches"`
	// Fsyncs counts fsync calls on the WAL.
	Fsyncs int64 `json:"fsyncs"`
	// Snapshots counts snapshots taken since open.
	Snapshots int64 `json:"snapshots"`
	// LastSnapshot is when the last snapshot completed (zero if never).
	LastSnapshot time.Time `json:"last_snapshot,omitzero"`
	// SnapshotBytes is the size of the latest snapshot image.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Failed is the text of the WAL error that failed the provider ("" while
	// it is healthy). Once it is set, every Sync and Snapshot returns that
	// error until a restart recovers the log's valid prefix.
	Failed string `json:"failed,omitempty"`
}

// Memory is the no-op provider: every record is dropped, Load finds nothing.
// It exists so the wiring is uniform — a system always has a Provider — while
// keeping the seed's pure in-memory behavior.
type Memory struct{}

// NewMemory returns the no-op provider.
func NewMemory() *Memory { return &Memory{} }

// AppendAsync discards the record.
func (*Memory) AppendAsync(Record) {}

// Sync is a no-op barrier.
func (*Memory) Sync() error { return nil }

// Snapshot discards the image without even capturing it.
func (*Memory) Snapshot(func() ([]byte, error)) error { return nil }

// Load finds nothing.
func (*Memory) Load() ([]byte, []Record, error) { return nil, nil, nil }

// Status reports the memory mode.
func (*Memory) Status() Status { return Status{Mode: "memory"} }

// Close is a no-op.
func (*Memory) Close() error { return nil }
