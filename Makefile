# Test tiers. tier1 is the gate every change must keep green (build + vet +
# tests); race adds the race-detector sweep covering the concurrent session
# core, then re-runs the chaos/fault suites under -race explicitly so the
# failure paths (sentinel death, connection drops, deadlines, torn frames)
# are exercised with the detector on even if the default sweep is filtered;
# conformance runs the backend contract suite — every backend directly and
# through every strategy — under -race; bench-smoke compiles and single-shots
# the parallel and allocation benchmarks so they cannot bit-rot; bench-json
# writes a fresh JSON report (git-ignored; the committed BENCH_*.json files
# are frozen history). tier1 also vets the perfbench module, which is a
# separate Go module that `go build ./...` does not reach.

GO ?= go
BENCH_JSON ?= bench-report.json
BENCH_BASE ?= BENCH_9.json

.PHONY: all tier1 race conformance bench-smoke bench-json bench-compare

all: tier1 race bench-smoke

tier1:
	$(GO) build ./...
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	cd perfbench && $(GO) vet .
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'Chaos|Fault|Proxy|Partial|Torn|SentinelDeath|StalledSentinel|Mux|Client' \
		./internal/ipc ./internal/core ./internal/remote ./internal/faultinject ./internal/bench
	$(GO) test -race -count=1 -run 'Tenant|Drain|Daemon|Sigterm|Signal' \
		./internal/daemon ./internal/remote ./cmd/afd
	$(GO) test -race -count=1 -run 'Fleet|Lease|Refusal|Map' \
		./internal/fleet ./internal/remote ./internal/cache

# The backend contract suite: conformance profiles over every backend kind
# directly (package backend) and end-to-end through each strategy via the
# manifest backend= param (package core), with the race detector on.
conformance:
	$(GO) test -race -count=1 -run 'Conformance|TestBackend' \
		./internal/backend/... ./internal/core ./internal/remote ./internal/fleet

# Smoke-run the benchmark panels: the parallel sweep plus the wire
# allocation benchmarks (which assert the zero-copy framing stays
# allocation-free), the small-block sequential panel, and a short
# pipe-vs-shm transport sweep so the syscall-economy cells cannot bit-rot.
bench-smoke:
	$(GO) vet ./...
	$(GO) test -run NONE -bench BenchmarkParallel -benchtime 1x ./internal/bench
	$(GO) test -run NONE -bench 'BenchmarkWriteRequest|BenchmarkReadResponse' -benchtime 100x ./internal/wire
	$(GO) test -run NONE -bench BenchmarkSmallBlockSequential -benchtime 10x ./internal/bench
	$(GO) test -run NONE -bench BenchmarkOpenClose -benchtime 3x ./internal/bench
	$(GO) test -run NONE -bench BenchmarkShardedCacheParallelHits -benchtime 100x ./internal/cache
	$(GO) run ./cmd/afbench -transport sweep -panel c -op read -blocks 64 -ops 200
	$(GO) run ./cmd/afbench -fleet 1,2 -ops 200

# Write the machine-readable benchmark report: the Figure 6 panels plus
# the concurrency sweeps (with frame-batching amortization), the
# pipe-vs-shm carrier sweep, the backend sweep, the many-tenant session
# sweep (admission, quota rejections, drain), the fleet scaling sweep, and
# the open/close churn sweep. The default output is git-ignored; the
# committed BENCH_*.json files are frozen history. Override BENCH_JSON to
# write elsewhere.
bench-json:
	$(GO) run ./cmd/afbench -full -json $(BENCH_JSON)

# Diff a fresh report (make bench-json) against the latest committed
# baseline as a per-cell percentage table. Override BENCH_BASE/BENCH_JSON
# to compare other pairs, e.g. BENCH_BASE=BENCH_8.json BENCH_JSON=BENCH_9.json
# (v1 reports compare on their Figure 6 cells only).
bench-compare:
	$(GO) run ./cmd/afbench -compare $(BENCH_BASE),$(BENCH_JSON)
