package scheduler

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/tenancy"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

// BenchmarkSchedulerThroughput measures sustained control-plane throughput:
// many users submit short jobs against the full grid at once and the
// benchmark times how long the scheduler takes to drain the backlog to
// terminal states. The program is trivial and the compile is cached after
// the first job, so the measurement is dominated by the allocate/dispatch/
// release machinery: the free-set index, the sharded store and the
// fair-share pass over the queued-index. The grid=1024 variant scales the
// simulated cluster 16× to expose any cost term that grows with the size of
// the system rather than the work requested; grid=1024-weighted adds a live
// tenancy accountant (weights 1/2/4/8 across users, steps charged per run),
// as a deployment has.
//
// Reported metrics: jobs/s (completed jobs per wall second) and the
// scheduler pass latency histogram (p50/p99 of scheduler_pass_seconds).
func BenchmarkSchedulerThroughput(b *testing.B) {
	cases := []struct {
		name               string
		segments, nodesPer int
		users, jobsPerUser int
		weighted           bool
	}{
		// The paper's 4×16 grid: 200 students, two submissions each.
		{"grid=64", 4, 16, 200, 2, false},
		// Scaling variant: 16×64 = 1024 nodes, 256 users, six jobs each.
		{"grid=1024", 16, 64, 256, 6, false},
		{"grid=1024-weighted", 16, 64, 256, 6, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			totalJobs := tc.users * tc.jobsPerUser
			clk := clock.Real{}
			var passHist *metrics.Histogram
			b.ResetTimer()
			for iter := 0; iter < b.N; iter++ {
				cfg := config.Default()
				cfg.Cluster.Segments = tc.segments
				cfg.Cluster.NodesPerSegment = tc.nodesPer
				clus, err := cluster.New(cfg, clk)
				if err != nil {
					b.Fatal(err)
				}
				tools := toolchain.NewService(clk)
				store := jobs.NewStore(0, clk)
				fs := vfs.New(1<<24, clk)
				reg := metrics.NewRegistry()
				opts := Options{WallTime: time.Minute, Clock: clk, Metrics: reg}
				var acct *tenancy.Accountant
				if tc.weighted {
					acct = tenancy.New(tenancy.Limits{Weight: 1}, clk)
					opts.Tenant = acct
				}
				s := New(clus, tools, store, fs, opts)
				passHist = reg.Histogram("scheduler_pass_seconds", nil)
				for u := 0; u < tc.users; u++ {
					name := fmt.Sprintf("user%03d", u)
					h := fs.EnsureHome(name)
					if err := h.WriteFile("/job.mc", []byte(helloSrc)); err != nil {
						b.Fatal(err)
					}
					if acct != nil {
						acct.SetLimits(name, tenancy.Limits{Weight: 1 << (u % 4)})
					}
				}
				s.Start(5 * time.Millisecond)
				ids := make([]string, 0, totalJobs)
				for u := 0; u < tc.users; u++ {
					owner := fmt.Sprintf("user%03d", u)
					for k := 0; k < tc.jobsPerUser; k++ {
						j, err := store.Submit(jobs.Spec{
							Owner: owner, SourcePath: "/job.mc", Language: "minic", Ranks: 1,
						})
						if err != nil {
							b.Fatal(err)
						}
						ids = append(ids, j.ID)
					}
				}
				for _, id := range ids {
					snap, err := store.WaitTerminal(id, time.Minute)
					if err != nil {
						b.Fatal(err)
					}
					if snap.State != jobs.StateSucceeded {
						b.Fatalf("job %s: %v (%s)", id, snap.State, snap.Failure)
					}
				}
				s.Stop()
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(totalJobs*b.N)/elapsed, "jobs/s")
			}
			if passHist != nil && passHist.Count() > 0 {
				b.ReportMetric(passHist.Quantile(0.50)*1e6, "µs/pass-p50")
				b.ReportMetric(passHist.Quantile(0.99)*1e6, "µs/pass-p99")
			}
		})
	}
}
