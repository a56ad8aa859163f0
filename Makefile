GO ?= go

.PHONY: all build test check fmt vet race determinism bench bench-smoke results

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: vet, formatting, race-enabled tests (the
# parallel experiment runner and the HA replication machinery must be
# race-clean), and the multi-core determinism gate.
check: vet fmt race determinism

# perfbench is a separate module that `go build ./...` skips, yet it drives
# the daemon backend's exported API; vetting it here (offline, through its
# replace directive) makes an API change that breaks it fail the gate.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The routeserver, HA, pgstate, and plan packages run twice under the
# detector: routeserver's parallel miss path overlaps slow searches with
# scoped and full mutations (the reader/writer strategy lock is exactly the
# kind of claim the detector can refute); HA exercises real sockets,
# elections, and concurrent sync streams; pgstate's shard stress drives one
# table from many goroutines; plan snapshots a server that concurrent
# queries are hammering. All see different interleavings run to run.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'TestMiss|TestParallel|TestQueryLogConcurrent|TestServerConcurrent|TestScopedChurn' ./internal/routeserver/
	$(GO) test -race -count=2 ./internal/routeserver/ha/
	$(GO) test -race -count=2 -run 'TestConcurrent' ./internal/pgstate/
	$(GO) test -race -count=2 ./internal/routeserver/plan/

# determinism holds the experiments' scheduling-independence claims on
# more than one CPU: the exactly-once synthesis counters E20 asserts and
# the byte-identical report at any -parallel. A single-CPU run cannot
# interleave goroutines the way the singleflight race needed, so every
# step runs under GOMAXPROCS=2 and more than once.
determinism:
	GOMAXPROCS=2 $(GO) test -count=3 -run 'TestRunAllParallelDeterminism|TestE20RouteServer' ./internal/experiments/
	@for i in 1 2 3; do \
		for p in 1 8; do \
			GOMAXPROCS=2 $(GO) run ./cmd/experiments -seed 42 -parallel $$p | cmp - results_seed42.txt || exit 1; \
		done; \
	done

bench:
	$(GO) test -bench=. -benchmem

# bench-smoke runs every benchmark exactly once — CI uses it to catch
# benchmarks that no longer compile or that crash, without paying for
# real measurement. BenchmarkE20RouteServer, BenchmarkE22ScopedInvalidation,
# BenchmarkDaemonChurn, BenchmarkHAFailover, BenchmarkPGStateMillion,
# BenchmarkPlan, and BenchmarkParallelSynth also emit BENCH_*.json reports
# (untracked) as a machine-readable side effect; BENCH_parallelsynth.json
# records miss QPS at GOMAXPROCS 1/2/4 against a calibrated slow strategy.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Regenerate the committed golden output for the default seed.
results:
	$(GO) run ./cmd/experiments -seed 42 > results_seed42.txt
