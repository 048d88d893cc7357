GO ?= go

.PHONY: all check build vet fmt test race portalbench-test examples-smoke bench bench-vm bench-sched bench-wal bench-stream bench-http bench-fair bench-mpi smoke-http apilint

all: check

# check is the CI gate: formatting, vet, the API-surface lint, the full
# suite, the race detector over the concurrency-heavy packages, the
# benchmark module's vet and tests, the interactive example, and a short
# end-to-end load smoke against an in-process portal.
check: fmt vet apilint test race portalbench-test examples-smoke smoke-http

# apilint fails on responses that bypass the error envelope (raw http.Error
# or hand-rolled {"error": ...} literals) in the portal package, on
# /api/admin/ routes registered without withRole, and on /api/ routes
# missing from the API reference.
apilint:
	$(GO) run ./cmd/apilint -docs docs/api.md internal/portal

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# race also runs the root package's watch tests: Watch.Close is documented
# as safe while Next is blocked, and WaitJob follows a live stream.
race:
	$(GO) test -race ./internal/cluster/... ./internal/scheduler/... ./internal/jobs/... ./internal/mpi/... ./internal/topology/... ./internal/portal/... ./internal/minic/... ./internal/toolchain/... ./internal/dataprovider/... ./internal/auth/... ./internal/metrics/... ./internal/tenancy/... ./internal/trace/... ./internal/core/... ./internal/vfs/...
	$(GO) test -race -run '^TestClient(Watch|WaitJob)' .

# portalbench-test vets and tests the benchmark's own module. The root
# build never compiles it, so without this step an API change in the
# packages it drives would reach the benchmark unnoticed.
portalbench-test:
	$(GO) -C portalbench vet ./...
	$(GO) -C portalbench test ./...

# examples-smoke plays the interactive example's guessing game end to end
# (about a second): it is the one program that drives Client.Watch and
# SendInput together, and it exits non-zero through log.Fatal if the game
# does not finish. The test suite never runs the examples.
examples-smoke:
	$(GO) run ./examples/interactive

# smoke-http boots an in-process portal and runs the open-loop load
# generator briefly at low rate; any server or transport error fails it.
smoke-http:
	$(GO) run ./cmd/loadgen -smoke

bench:
	$(GO) test -run '^$$' -bench BenchmarkDispatchLatency -benchtime 20x ./internal/scheduler/

# bench-vm measures the minic interpreter (microbenchmarks in
# internal/minic/bench_test.go plus the end-to-end BenchmarkMinicExecute and
# BenchmarkPortalPipeline) and records ns/op + allocs/op in BENCH_vm.json so
# later changes have a trajectory to regress against. Not part of check:
# benchmark walltime is too noisy for a CI gate.
bench-vm:
	{ $(GO) test -run '^$$' -bench BenchmarkVM -benchmem -benchtime 1s ./internal/minic/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkMinicExecute|BenchmarkMinicCompile|BenchmarkPortalPipeline' -benchmem -benchtime 1s . ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_vm.json
	@cat BENCH_vm.json

# bench-sched measures sustained control-plane throughput (jobs/sec and
# scheduler pass latency at 64 and 1024 simulated nodes) and records it in
# BENCH_sched.json. Like bench-vm, it is not part of check: benchmark
# walltime is too noisy for a CI gate.
bench-sched:
	$(GO) test -run '^$$' -bench BenchmarkSchedulerThroughput -benchtime 5x ./internal/scheduler/ \
	| $(GO) run ./cmd/benchjson -o BENCH_sched.json
	@cat BENCH_sched.json

# bench-stream measures output fan-out: 10k concurrent watchers tailing 1000
# job streams (plus a stalled watcher per stream proving writes never block),
# reporting delivery-latency quantiles and the zero-alloc producer write path
# into BENCH_stream.json. Like the other bench targets, not part of check.
bench-stream:
	{ $(GO) test -run '^$$' -bench BenchmarkStreamFanout -benchtime 1x -timeout 300s ./internal/jobs/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkStreamWrite -benchtime 100000x ./internal/jobs/ ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_stream.json
	@cat BENCH_stream.json

# bench-wal measures the write-ahead log's group-commit append throughput at
# batch sizes 1, 16 and 256, with fsync on ("always") and off ("never"), and
# records it in BENCH_wal.json. Like the other bench targets, not part of
# check.
bench-wal:
	$(GO) test -run '^$$' -bench BenchmarkWALAppend -benchtime 1s ./internal/dataprovider/ \
	| $(GO) run ./cmd/benchjson -o BENCH_wal.json
	@cat BENCH_wal.json

# bench-fair measures scheduler throughput with weighted fair-share enabled
# (BenchmarkSchedulerFairShare) next to the FIFO baseline at 1024 nodes, and
# records both in BENCH_fair.json — the fair-share pass must hold within 10%
# of FIFO throughput. Like the other bench targets, not part of check.
bench-fair:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerThroughput/grid=1024|BenchmarkSchedulerFairShare' -benchtime 5x ./internal/scheduler/ \
	| $(GO) run ./cmd/benchjson -o BENCH_fair.json
	@cat BENCH_fair.json

# bench-mpi measures the MPI data plane: point-to-point ns/op and allocs/op
# (the pooled RecvInto path must stay at 0 allocs/op — also gated in check by
# the AllocsPerRun tests), the 1024-element AllReduce at 64 ranks as a
# per-element scalar loop vs one vector call, and simulated collective
# makespan across {linear, tree, hier} × {64, 256 ranks} × {1, 4 segments} ×
# payload sizes. All land in BENCH_mpi.json. Like the other bench targets,
# not part of check.
bench-mpi:
	{ $(GO) test -run '^$$' -bench 'BenchmarkP2P$$' -benchmem -benchtime 200000x ./internal/mpi/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkAllReduce1024$$' -benchtime 3x ./internal/mpi/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCollectiveMakespan$$' -benchtime 1x -timeout 300s ./internal/mpi/ ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_mpi.json
	@cat BENCH_mpi.json

# bench-http measures the HTTP edge two ways: in-process ServeHTTP
# micro-benchmarks (ns/op and allocs/op per endpoint) and the open-loop load
# generator driving a real listener at a fixed arrival rate (achieved rps
# and p50/p99/p999 from intended start times). Both land in BENCH_http.json.
# Like the other bench targets, not part of check.
bench-http:
	{ for b in Languages JobGet JobList Submit Login; do \
	    $(GO) test -run '^$$' -bench BenchmarkHTTP$$b'$$' -benchmem -benchtime 20000x ./internal/portal/ ; \
	  done ; \
	  $(GO) run ./cmd/loadgen -deck mixed -rps 1000 -duration 5s ; \
	  $(GO) run ./cmd/loadgen -deck read -rps 2000 -duration 5s ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_http.json
	@cat BENCH_http.json
