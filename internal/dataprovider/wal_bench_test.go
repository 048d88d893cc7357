package dataprovider

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkWALAppend measures group-commit append throughput on the path a
// handler acknowledges a write with: each op is an AppendAsync followed by a
// Sync barrier. Each sub-benchmark runs `batch` concurrent writers, so the
// committer sees up to `batch` writers per commit cycle; the fsync dimension
// separates the cost of the write path from the cost of the disk barrier.
// `make bench-wal` records the results in BENCH_wal.json.
func BenchmarkWALAppend(b *testing.B) {
	payload := []byte(`{"id":"job-000042","state":"queued","ranks":4}`)
	for _, fsync := range []string{FsyncAlways, FsyncNever} {
		for _, batch := range []int{1, 16, 256} {
			name := fmt.Sprintf("fsync=%s/batch=%d", fsync, batch)
			b.Run(name, func(b *testing.B) {
				d, err := NewDurable(b.TempDir(), DurableOptions{Fsync: fsync})
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				b.SetBytes(int64(len(payload) + frameHeaderLen))
				b.ResetTimer()
				// Split b.N appends across `batch` writers so the committer
				// can coalesce them; the remainder goes to writer 0.
				per := b.N / batch
				extra := b.N % batch
				var wg sync.WaitGroup
				for w := 0; w < batch; w++ {
					n := per
					if w == 0 {
						n += extra
					}
					if n == 0 {
						continue
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							d.AppendAsync(Record{Kind: KindJobTransition, Data: payload})
							if err := d.Sync(); err != nil {
								b.Error(err)
								return
							}
						}
					}(n)
				}
				wg.Wait()
				b.StopTimer()
				st := d.Status()
				b.ReportMetric(float64(st.Fsyncs), "fsyncs")
				b.ReportMetric(float64(st.Batches), "batches")
			})
		}
	}
}
