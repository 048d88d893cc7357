package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/dataprovider"
	"repro/internal/metrics"
)

// This file wires the dataprovider into the assembled system: provider
// construction from configuration, boot-time crash recovery, snapshotting
// with job-history compaction, and the adapter behind the portal's admin
// backup/restore endpoints.

// buildProvider constructs the configured data provider.
func buildProvider(cfg config.Config, reg *metrics.Registry) (dataprovider.Provider, error) {
	if cfg.Persistence.Mode != "durable" {
		return dataprovider.NewMemory(), nil
	}
	return dataprovider.NewDurable(cfg.Persistence.Dir, dataprovider.DurableOptions{
		Fsync:   cfg.Persistence.Fsync,
		Metrics: reg,
	})
}

// attachJournals points every state-bearing subsystem at the provider.
// Recovery calls it only after replay is complete, so replayed records are
// never re-journaled; from then on each mutation is written behind the
// in-memory update.
func (s *System) attachJournals() {
	s.Jobs.SetJournal(s.Provider)
	s.Auth.SetJournal(s.Provider)
	s.FS.SetJournal(s.Provider)
	s.Tenancy.SetJournal(s.Provider)
}

// RecoveryStats summarizes a Recover pass, for the boot log.
type RecoveryStats struct {
	// SnapshotBytes is the size of the restored snapshot image (0 if none).
	SnapshotBytes int
	// Records is how many WAL records were replayed over the snapshot.
	Records int
	// Requeued is how many interrupted jobs went back to the queue.
	Requeued int
	// Elapsed is the wall time the whole pass took.
	Elapsed time.Duration
}

// Recover restores the system from the provider and arms journaling. It
// must run once, before Start and before any mutation, on every system —
// with the memory provider it finds nothing, attaches the no-op journal and
// returns immediately.
//
// The pass runs in strict order: restore the snapshot with every job at its
// recorded state, replay the WAL suffix over it, attach the journals, and
// only then requeue jobs stranded in compiling or running. Requeueing last
// matters twice over — replay may legitimately move a restored "running"
// job to "succeeded" (so demoting early would re-execute finished work),
// and the requeue transitions themselves must hit the newly attached
// journal so a second crash replays them.
func (s *System) Recover() (RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	snap, recs, err := s.Provider.Load()
	if err != nil {
		return stats, err
	}
	if len(snap) > 0 {
		var st state
		if err := json.Unmarshal(snap, &st); err != nil {
			return stats, fmt.Errorf("core: decoding snapshot: %w", err)
		}
		if err := s.applyState(&st); err != nil {
			return stats, fmt.Errorf("core: restoring snapshot: %w", err)
		}
		stats.SnapshotBytes = len(snap)
	}
	for _, rec := range recs {
		if err := s.applyRecord(rec); err != nil {
			return stats, fmt.Errorf("core: replaying record %d: %w", stats.Records, err)
		}
		stats.Records++
	}
	s.attachJournals()
	stats.Requeued = s.Jobs.RecoverInterrupted()
	stats.Elapsed = time.Since(start)
	if s.Metrics != nil {
		s.Metrics.Histogram("portal_recovery_seconds", nil).Observe(stats.Elapsed.Seconds())
	}
	return stats, nil
}

// applyRecord routes one replayed record to its subsystem.
func (s *System) applyRecord(rec dataprovider.Record) error {
	switch rec.Kind {
	case dataprovider.KindUserPut:
		return s.Auth.ApplyRecord(rec)
	case dataprovider.KindJobSubmit, dataprovider.KindJobTransition, dataprovider.KindJobRestore:
		return s.Jobs.ApplyRecord(rec)
	case dataprovider.KindVFSWrite, dataprovider.KindVFSMkdir,
		dataprovider.KindVFSRemove, dataprovider.KindVFSRename, dataprovider.KindVFSCopy:
		return s.FS.ApplyRecord(rec)
	case dataprovider.KindTenancyLimits, dataprovider.KindTenancySteps:
		return s.Tenancy.ApplyRecord(rec)
	default:
		return fmt.Errorf("core: unknown record kind %d", rec.Kind)
	}
}

// SnapshotNow compacts the job history to the configured retention and
// folds the current state into a fresh snapshot, truncating the WAL. It
// returns how many terminal jobs the compaction dropped.
func (s *System) SnapshotNow() (dropped int, err error) {
	dropped = s.Jobs.Compact(s.Config.Persistence.JobRetention)
	err = s.Provider.Snapshot(func() ([]byte, error) {
		st, err := s.buildState()
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	})
	return dropped, err
}

// persistenceOps adapts the System to the portal's admin persistence
// surface.
type persistenceOps struct{ s *System }

func (p persistenceOps) Backup(w io.Writer) error    { return p.s.SaveState(w) }
func (p persistenceOps) Restore(r io.Reader) error   { return p.s.LoadState(r) }
func (p persistenceOps) Status() dataprovider.Status { return p.s.Provider.Status() }
func (p persistenceOps) Sync() error                 { return p.s.Provider.Sync() }
