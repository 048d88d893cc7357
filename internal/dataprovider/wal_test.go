package dataprovider

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// encode frames the records the way the committer does.
func encode(recs ...Record) []byte {
	var buf bytes.Buffer
	for _, rec := range recs {
		appendFrame(&buf, rec)
	}
	return buf.Bytes()
}

func rec(kind Kind, data string) Record {
	return Record{Kind: kind, Data: []byte(data)}
}

func TestDecodeFramesRoundTrip(t *testing.T) {
	in := []Record{
		rec(KindUserPut, `{"name":"alice"}`),
		rec(KindJobSubmit, `{"id":"job-000001"}`),
		rec(KindVFSWrite, ""),
	}
	data := encode(in...)
	out, validLen := decodeFrames(data)
	if validLen != len(data) {
		t.Fatalf("validLen = %d, want %d", validLen, len(data))
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Errorf("record %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestDecodeFramesCorruption covers the crash-recovery contract: any damage
// to the log ends the walk at the last fully-valid record — it never
// errors, never panics, never returns a record past the damage.
func TestDecodeFramesCorruption(t *testing.T) {
	r1 := rec(KindUserPut, "first")
	r2 := rec(KindJobSubmit, "second")
	full := encode(r1, r2)
	firstLen := len(encode(r1))

	cases := []struct {
		name      string
		data      []byte
		wantRecs  int
		wantValid int
	}{
		{"empty", nil, 0, 0},
		{"truncated header", full[:firstLen+3], 1, firstLen},
		{"truncated payload", full[:len(full)-2], 1, firstLen},
		{"bit flip in payload", flipBit(full, len(full)-1), 1, firstLen},
		{"bit flip in crc", flipBit(full, firstLen+5), 1, firstLen},
		{"bit flip in first record", flipBit(full, 9), 0, 0},
		{"zero length record", append(encode(r1), make([]byte, frameHeaderLen)...), 1, firstLen},
		{"absurd length", append(encode(r1), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), 1, firstLen},
		{"garbage", []byte("this is not a WAL at all, but it is long enough"), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, validLen := decodeFrames(tc.data)
			if len(recs) != tc.wantRecs {
				t.Errorf("decoded %d records, want %d", len(recs), tc.wantRecs)
			}
			if validLen != tc.wantValid {
				t.Errorf("validLen = %d, want %d", validLen, tc.wantValid)
			}
		})
	}
}

func flipBit(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// FuzzDecodeFrames asserts the decoder's safety net on arbitrary bytes: no
// panic, a valid prefix no longer than the input, and — when the input is a
// valid log with garbage appended — full recovery of the records.
func FuzzDecodeFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode(rec(KindUserPut, "seed")))
	f.Add(append(encode(rec(KindJobSubmit, "seed2"), rec(KindVFSWrite, "x")), 0xde, 0xad))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen := decodeFrames(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d out of range [0, %d]", validLen, len(data))
		}
		// The valid prefix must re-decode to exactly the same records.
		again, againLen := decodeFrames(data[:validLen])
		if againLen != validLen || len(again) != len(recs) {
			t.Fatalf("re-decode of valid prefix: %d records/%d bytes, want %d/%d",
				len(again), againLen, len(recs), validLen)
		}
	})
}

// appendSync appends rec and waits on a Sync barrier: the path a handler
// takes before it acknowledges a write.
func appendSync(d *Durable, r Record) error {
	d.AppendAsync(r)
	return d.Sync()
}

func openDurable(t *testing.T, dir string, opts DurableOptions) *Durable {
	t.Helper()
	d, err := NewDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDurableAppendAndReload(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	for i := 0; i < 10; i++ {
		if err := appendSync(d, rec(KindUserPut, fmt.Sprintf("user-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	snap, recs, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Errorf("unexpected snapshot: %q", snap)
	}
	if len(recs) != 10 {
		t.Fatalf("reloaded %d records, want 10", len(recs))
	}
	if string(recs[7].Data) != "user-7" {
		t.Errorf("record 7 = %q", recs[7].Data)
	}
}

func TestDurableTruncatesTornTailOnOpen(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	if err := appendSync(d, rec(KindJobSubmit, "kept")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: garbage after the valid record.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	_, recs, _ := d2.Load()
	if len(recs) != 1 || string(recs[0].Data) != "kept" {
		t.Fatalf("recovered %v, want the one valid record", recs)
	}
	// New appends must extend the now-clean log.
	if err := appendSync(d2, rec(KindJobSubmit, "after")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3 := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	_, recs3, _ := d3.Load()
	if len(recs3) != 2 || string(recs3[1].Data) != "after" {
		t.Fatalf("after re-append, recovered %d records", len(recs3))
	}
}

func TestDurableGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncAlways})
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := appendSync(d, rec(KindUserPut, fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := d.Status()
	if st.WALRecords != writers*each {
		t.Fatalf("WALRecords = %d, want %d", st.WALRecords, writers*each)
	}
	// The whole point of group commit: far fewer fsyncs than records. With
	// 8 concurrent writers at least some batching must happen; the strict
	// bound is fsyncs <= records, the practical one is well under.
	if st.Fsyncs > st.WALRecords {
		t.Errorf("fsyncs %d > records %d: no batching at all", st.Fsyncs, st.WALRecords)
	}
	if st.Batches == 0 {
		t.Error("no batches recorded")
	}
}

func TestDurableSyncBarrierCoversAsyncAppends(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncAlways})
	for i := 0; i < 100; i++ {
		d.AppendAsync(rec(KindJobTransition, fmt.Sprintf("t%d", i)))
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.Status().WALRecords; got != 100 {
		t.Fatalf("after Sync, WALRecords = %d, want 100", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: FsyncAlways})
	_, recs, _ := d2.Load()
	if len(recs) != 100 {
		t.Fatalf("reloaded %d records, want 100", len(recs))
	}
}

func TestDurableSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	for i := 0; i < 5; i++ {
		if err := appendSync(d, rec(KindUserPut, "x")); err != nil {
			t.Fatal(err)
		}
	}
	image := []byte(`{"version":2}`)
	if err := d.Snapshot(func() ([]byte, error) { return image, nil }); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.WALBytes != 0 {
		t.Errorf("WALBytes = %d after snapshot, want 0", st.WALBytes)
	}
	if st.Snapshots != 1 || st.SnapshotBytes != int64(len(image)) {
		t.Errorf("snapshot counters = %+v", st)
	}
	if st.LastSnapshot.IsZero() {
		t.Error("LastSnapshot not set")
	}
	// Records after the snapshot land in the fresh WAL.
	if err := appendSync(d, rec(KindUserPut, "post")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	snap, recs, _ := d2.Load()
	if !bytes.Equal(snap, image) {
		t.Errorf("reloaded snapshot = %q, want %q", snap, image)
	}
	if len(recs) != 1 || string(recs[0].Data) != "post" {
		t.Fatalf("reloaded %d post-snapshot records, want 1", len(recs))
	}
}

func TestDurableSnapshotCaptureFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	if err := appendSync(d, rec(KindUserPut, "keep me")); err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("capture exploded")
	if err := d.Snapshot(func() ([]byte, error) { return nil, wantErr }); err == nil {
		t.Fatal("snapshot succeeded despite capture failure")
	}
	// The WAL was never touched, so a failed capture must not latch.
	if err := appendSync(d, rec(KindUserPut, "after")); err != nil {
		t.Fatalf("append after a failed capture: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	_, recs, _ := d2.Load()
	if len(recs) != 2 {
		t.Fatalf("WAL lost records after failed snapshot: %d, want 2", len(recs))
	}
}

func TestDurableClose(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDurable(dir, DurableOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := d.Sync(); err != ErrClosed {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}
	d.AppendAsync(rec(KindUserPut, "dropped")) // must not panic
}

func TestDurableRejectsBadFsyncPolicy(t *testing.T) {
	if _, err := NewDurable(t.TempDir(), DurableOptions{Fsync: "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

// TestDurableFailedWriteFailsLaterBarriers pins the fail-stop latch: once a
// batch of async records fails to reach the WAL, no later barrier may
// acknowledge anything, even a barrier whose own batch writes nothing.
func TestDurableFailedWriteFailsLaterBarriers(t *testing.T) {
	reg := metrics.NewRegistry()
	d := openDurable(t, t.TempDir(), DurableOptions{Fsync: FsyncAlways, Metrics: reg})
	if failed, gauge := d.Status().Failed, reg.Snapshot()["persistence_failed"]; failed != "" || gauge != 0 {
		t.Fatalf("healthy provider reports failed %q, persistence_failed %d; want \"\" and 0", failed, gauge)
	}
	d.wal.Close() // every later write to the log fails
	d.AppendAsync(rec(KindJobTransition, "lost"))
	// Let the committer take the record in a batch of its own, with no
	// waiter to tell. Should a Sync join that batch instead, it fails all
	// the same, so the wait cannot make the test flaky.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := d.Sync(); err == nil {
			t.Fatalf("Sync %d acknowledged a record the WAL lost", i+1)
		}
	}
	captured := false
	err := d.Snapshot(func() ([]byte, error) { captured = true; return []byte("{}"), nil })
	if err == nil || captured {
		t.Fatalf("Snapshot on a failed provider: err %v, captured %v; want an error and no capture", err, captured)
	}
	st := d.Status()
	if st.WALRecords != 0 {
		t.Errorf("WALRecords = %d, want 0", st.WALRecords)
	}
	if !strings.Contains(st.Failed, "writing WAL") {
		t.Errorf("Status().Failed = %q, want the write error", st.Failed)
	}
	if gauge := reg.Snapshot()["persistence_failed"]; gauge != 1 {
		t.Errorf("persistence_failed = %d, want 1", gauge)
	}
}

// TestDurableLoadHandsOutOnce checks that the provider drops recovery's
// snapshot image and records once it has handed them out.
func TestDurableLoadHandsOutOnce(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	if err := d.Snapshot(func() ([]byte, error) { return []byte(`{"version":3}`), nil }); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(d, rec(KindUserPut, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	if snap, recs, _ := d2.Load(); len(snap) == 0 || len(recs) != 1 {
		t.Fatalf("first Load: %d snapshot bytes, %d records; want both", len(snap), len(recs))
	}
	if snap, recs, _ := d2.Load(); snap != nil || recs != nil {
		t.Fatalf("second Load: %d snapshot bytes, %d records; want none", len(snap), len(recs))
	}
}
