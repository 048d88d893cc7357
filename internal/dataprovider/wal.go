package dataprovider

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Fsync policies for the durable provider.
const (
	// FsyncAlways fsyncs every batch that carries a Sync barrier —
	// acknowledged writes survive an OS crash. Group commit amortizes the
	// fsync over every record that queued up behind the previous one.
	FsyncAlways = "always"
	// FsyncNever leaves flushing to the OS entirely.
	FsyncNever = "never"
)

// ErrClosed is returned by operations on a closed provider.
var ErrClosed = errors.New("dataprovider: provider is closed")

// On-disk names within the provider directory.
const (
	walName  = "wal.log"
	snapName = "snapshot.dat"
)

// Record frame: a fixed header of two little-endian uint32s — payload length
// and CRC-32C of the payload — followed by the payload, whose first byte is
// the Kind. A zero-length payload is invalid (every record has a kind), so
// the decoder treats it, like a bad CRC or a truncated tail, as the end of
// the valid prefix.
const (
	frameHeaderLen = 8
	// maxPayloadLen bounds a single record so a corrupted length field can
	// never drive a giant allocation. Generous: the largest real record is
	// a VFS write of one quota-bounded file.
	maxPayloadLen = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes rec onto buf in the WAL frame format.
func appendFrame(buf *bytes.Buffer, rec Record) {
	var hdr [frameHeaderLen]byte
	payloadLen := 1 + len(rec.Data)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	crc := crc32.Update(0, crcTable, []byte{byte(rec.Kind)})
	crc = crc32.Update(crc, crcTable, rec.Data)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf.Write(hdr[:])
	buf.WriteByte(byte(rec.Kind))
	buf.Write(rec.Data)
}

// decodeFrames walks data and returns every valid record plus the length of
// the valid prefix. It never fails: a truncated tail, a zero-length record,
// an absurd length or a CRC mismatch all simply end the walk — the crash-
// recovery contract is "replay everything that was fully written, ignore the
// torn write at the end".
func decodeFrames(data []byte) (recs []Record, validLen int) {
	off := 0
	for {
		if len(data)-off < frameHeaderLen {
			return recs, off
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if payloadLen < 1 || payloadLen > maxPayloadLen {
			return recs, off
		}
		start := off + frameHeaderLen
		if len(data)-start < payloadLen {
			return recs, off
		}
		payload := data[start : start+payloadLen]
		if crc32.Checksum(payload, crcTable) != crc {
			return recs, off
		}
		recs = append(recs, Record{
			Kind: Kind(payload[0]),
			Data: append([]byte(nil), payload[1:]...),
		})
		off = start + payloadLen
	}
}

// DurableOptions tune the durable provider.
type DurableOptions struct {
	// Fsync is the policy: FsyncAlways (default) or FsyncNever.
	Fsync string
	// Metrics receives the wal_append_seconds and snapshot_seconds
	// histograms and the persistence_failed gauge; nil disables
	// instrumentation.
	Metrics *metrics.Registry
}

// batchMax bounds the requests one group commit takes off the queue.
const batchMax = 512

// request is one unit of committer work: a record (rec), a Sync barrier
// (done), or a snapshot (capture and done).
type request struct {
	rec     *Record
	capture func() ([]byte, error)
	done    chan error
}

// Durable is the WAL + snapshot provider. All writes funnel through one
// committer goroutine: appends arriving while a batch is being written are
// collected and committed together under a single fsync (group commit), so
// N concurrent acknowledged writes cost ~1 fsync, not N.
type Durable struct {
	dir    string
	opts   DurableOptions
	wal    *os.File
	reqs   chan request
	stop   chan struct{}
	wg     sync.WaitGroup
	lifeMu sync.RWMutex
	done   bool

	// Load's results, captured at open and handed out once.
	loadedSnap []byte
	loadedRecs []Record

	// Committer state, touched only by the commitLoop goroutine.
	batch  []request
	buf    bytes.Buffer
	dirty  bool  // bytes written since the last fsync
	failed error // the first WAL write, fsync, truncate or seek error

	records   atomic.Int64
	batches   atomic.Int64
	fsyncs    atomic.Int64
	snapshots atomic.Int64
	walBytes  atomic.Int64
	snapBytes atomic.Int64
	lastSnap  atomic.Int64           // unix nanos; 0 = never
	failMsg   atomic.Pointer[string] // failed's text, published by fail

	appendHist *metrics.Histogram
	snapHist   *metrics.Histogram
}

// NewDurable opens (creating if needed) the provider rooted at dir and
// performs crash recovery immediately: it reads the snapshot, replays the
// WAL's valid prefix into memory for Load, truncates any torn tail so new
// appends extend a clean log, and starts the group committer.
func NewDurable(dir string, opts DurableOptions) (*Durable, error) {
	switch opts.Fsync {
	case "":
		opts.Fsync = FsyncAlways
	case FsyncAlways, FsyncNever:
	default:
		return nil, fmt.Errorf("dataprovider: unknown fsync policy %q", opts.Fsync)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataprovider: %w", err)
	}
	d := &Durable{
		dir:   dir,
		opts:  opts,
		reqs:  make(chan request, 1024),
		stop:  make(chan struct{}),
		batch: make([]request, 0, batchMax),
	}
	if opts.Metrics != nil {
		d.appendHist = opts.Metrics.Histogram("wal_append_seconds", nil)
		d.snapHist = opts.Metrics.Histogram("snapshot_seconds", nil)
		opts.Metrics.RegisterFunc("persistence_failed", func() int64 {
			if d.failMsg.Load() != nil {
				return 1
			}
			return 0
		})
	}

	snap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("dataprovider: reading snapshot: %w", err)
	}
	if err == nil {
		d.loadedSnap = snap
		d.snapBytes.Store(int64(len(snap)))
	}

	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("dataprovider: reading WAL: %w", err)
	}
	recs, validLen := decodeFrames(raw)
	d.loadedRecs = recs

	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dataprovider: opening WAL: %w", err)
	}
	// Drop the torn tail (if any) so new frames extend the valid prefix.
	if validLen < len(raw) {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, fmt.Errorf("dataprovider: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("dataprovider: %w", err)
	}
	d.wal = f
	d.walBytes.Store(int64(validLen))

	d.wg.Add(1)
	go d.commitLoop()
	return d, nil
}

// Load hands out the snapshot and post-snapshot records recovered at open,
// once: it drops its references so replay's inputs can be collected.
func (d *Durable) Load() ([]byte, []Record, error) {
	snap, recs := d.loadedSnap, d.loadedRecs
	d.loadedSnap, d.loadedRecs = nil, nil
	return snap, recs, nil
}

// send enqueues a request unless the provider is closed. The read lock is
// held across the channel send so Close, which takes the write lock before
// stopping the committer, can never strand an enqueued-but-unserved waiter:
// once Close holds the lock, every in-flight send has landed in the queue
// the committer drains on its way out.
func (d *Durable) send(req request) error {
	d.lifeMu.RLock()
	defer d.lifeMu.RUnlock()
	if d.done {
		return ErrClosed
	}
	d.reqs <- req
	return nil
}

// AppendAsync enqueues rec for the next group commit without waiting.
func (d *Durable) AppendAsync(rec Record) {
	d.send(request{rec: &rec}) //nolint:errcheck — closed provider drops the record by design
}

// Sync blocks until everything enqueued before it is written (and fsynced
// under FsyncAlways). After the first failed write or fsync it returns that
// error.
func (d *Durable) Sync() error {
	done := make(chan error, 1)
	if err := d.send(request{done: done}); err != nil {
		return err
	}
	return <-done
}

// Snapshot quiesces appends, captures the state image, writes it atomically
// (tmp + fsync + rename) and truncates the WAL.
func (d *Durable) Snapshot(capture func() ([]byte, error)) error {
	done := make(chan error, 1)
	if err := d.send(request{capture: capture, done: done}); err != nil {
		return err
	}
	return <-done
}

// Status reports the operational counters.
func (d *Durable) Status() Status {
	st := Status{
		Mode:          "durable",
		Dir:           d.dir,
		Fsync:         d.opts.Fsync,
		WALRecords:    d.records.Load(),
		WALBytes:      d.walBytes.Load(),
		Batches:       d.batches.Load(),
		Fsyncs:        d.fsyncs.Load(),
		Snapshots:     d.snapshots.Load(),
		SnapshotBytes: d.snapBytes.Load(),
	}
	if ns := d.lastSnap.Load(); ns != 0 {
		st.LastSnapshot = time.Unix(0, ns)
	}
	if msg := d.failMsg.Load(); msg != nil {
		st.Failed = *msg
	}
	return st
}

// Close flushes pending records and releases the WAL file.
func (d *Durable) Close() error {
	d.lifeMu.Lock()
	if d.done {
		d.lifeMu.Unlock()
		return nil
	}
	d.done = true
	d.lifeMu.Unlock()
	close(d.stop)
	d.wg.Wait()
	return d.wal.Close()
}

// commitLoop is the single committer. It serves each request together with
// the requests queued behind it; on Close it serves what was enqueued before
// Close and flushes.
func (d *Durable) commitLoop() {
	defer d.wg.Done()
	for {
		select {
		case req := <-d.reqs:
			d.serve(req)
		case <-d.stop:
			for {
				select {
				case req := <-d.reqs:
					d.serve(req)
				default:
					if d.failed == nil && d.dirty && d.opts.Fsync == FsyncAlways {
						d.syncWAL()
					}
					return
				}
			}
		}
	}
}

// serve is group commit: req and the requests already queued behind it form
// one batch, which ends at batchMax requests, at an empty queue or at a
// snapshot request. The batch is committed, then the snapshot that ended it,
// if any, runs.
func (d *Durable) serve(req request) {
	batch := d.batch[:0]
	for req.capture == nil {
		batch = append(batch, req)
		if len(batch) < batchMax {
			select {
			case req = <-d.reqs:
				continue
			default:
			}
		}
		break
	}
	d.commit(batch)
	if req.capture != nil {
		req.done <- d.doSnapshot(req.capture)
	}
}

// commit writes the batch's records with one write call, fsyncs them under
// FsyncAlways when a barrier waits on the batch, and answers the barriers.
// The first failure latches: from then on nothing is written, so no later
// batch can land behind a torn frame, and every barrier gets the error.
func (d *Durable) commit(batch []request) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	d.buf.Reset()
	nrec, barrier := 0, false
	for _, req := range batch {
		if req.rec == nil {
			barrier = true
			continue
		}
		appendFrame(&d.buf, *req.rec)
		nrec++
	}
	if d.failed == nil && nrec > 0 {
		if _, err := d.wal.Write(d.buf.Bytes()); err != nil {
			d.fail(fmt.Errorf("dataprovider: writing WAL: %w", err))
		} else {
			d.walBytes.Add(int64(d.buf.Len()))
			d.records.Add(int64(nrec))
			d.batches.Add(1)
			d.dirty = true
		}
	}
	// FsyncAlways: only batches an acknowledger is waiting on pay the fsync;
	// pure-async batches (scheduler transitions) stay buffered until the
	// next barrier. The barrier then covers them too — Sync's contract is
	// "everything enqueued before me".
	if d.failed == nil && d.dirty && barrier && d.opts.Fsync == FsyncAlways {
		d.syncWAL()
	}
	for _, req := range batch {
		if req.done != nil {
			req.done <- d.failed
		}
	}
	if d.appendHist != nil && nrec > 0 {
		d.appendHist.Observe(time.Since(start).Seconds())
	}
}

// fail latches err as the committer's failure and publishes its text to
// Status and the persistence_failed gauge. It returns err.
func (d *Durable) fail(err error) error {
	d.failed = err
	msg := err.Error()
	d.failMsg.Store(&msg)
	return err
}

// syncWAL fsyncs the WAL. A failure latches and is never retried: after a
// failed fsync the kernel may drop the dirty pages and report the next
// fsync clean.
func (d *Durable) syncWAL() {
	if err := d.wal.Sync(); err != nil {
		d.fail(fmt.Errorf("dataprovider: syncing WAL: %w", err))
		return
	}
	d.fsyncs.Add(1)
	d.dirty = false
}

// doSnapshot runs in the committer goroutine, so appends are quiesced while
// the capture and the file shuffle happen. A failed provider takes no
// snapshot. Errors before the WAL is truncated leave the provider sound;
// a WAL truncate, seek or fsync error latches.
func (d *Durable) doSnapshot(capture func() ([]byte, error)) error {
	if d.failed != nil {
		return d.failed
	}
	start := time.Now()
	state, err := capture()
	if err != nil {
		return fmt.Errorf("dataprovider: snapshot capture: %w", err)
	}
	tmp := filepath.Join(d.dir, snapName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dataprovider: %w", err)
	}
	if _, err := f.Write(state); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dataprovider: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dataprovider: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dataprovider: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dataprovider: publishing snapshot: %w", err)
	}
	// A crash here leaves the old WAL alongside the new snapshot; replay is
	// idempotent, so applying those already-folded records twice is safe.
	if err := d.wal.Truncate(0); err != nil {
		return d.fail(fmt.Errorf("dataprovider: truncating WAL: %w", err))
	}
	if _, err := d.wal.Seek(0, 0); err != nil {
		return d.fail(fmt.Errorf("dataprovider: seeking WAL: %w", err))
	}
	if d.opts.Fsync == FsyncAlways {
		d.syncWAL()
	}
	d.walBytes.Store(0)
	d.snapBytes.Store(int64(len(state)))
	d.snapshots.Add(1)
	d.lastSnap.Store(time.Now().UnixNano())
	if d.snapHist != nil {
		d.snapHist.Observe(time.Since(start).Seconds())
	}
	return d.failed
}
