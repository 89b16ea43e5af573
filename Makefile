# Developer entry points. `make check` is the tier-1 gate: build + vet +
# full tests, plus the race detector over the -short suite (the heavy
# Monte Carlo tests are gated behind -short so the race pass stays within
# CI budget; see skipInShort in internal/faultsim).

GO ?= go

.PHONY: all build vet fmt-check staticcheck test race determinism fuzz-smoke check citbench-test stress-jobs stress-cluster stress-stream bench bench.out bench-check bench-all clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Extra static analysis when the tool is available. Gated on `command -v`
# so `make check` never downloads anything; CI installs staticcheck
# explicitly (see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Race-enabled pass over the fast suite. -short skips the statistically
# heavy Monte Carlo tests (tens of seconds each under the race detector)
# while still racing every engine, the HTTP server, and the cancellation
# paths.
race:
	$(GO) test -race -short ./...

# Host-independence gate: the engine packages must pass at one, two
# (the reference host's width) and four Ps. Seeded results are a pure
# function of (spec, seed), so any test that pins a value and passes at
# one setting but not another has found a result that leaks the host's
# core count. -count=1 because the test cache ignores GOMAXPROCS.
DETERMINISM_PKGS = ./internal/faultsim ./internal/rare ./internal/scenario ./internal/jobs ./internal/cluster
determinism:
	GOMAXPROCS=1 $(GO) test -count=1 $(DETERMINISM_PKGS)
	GOMAXPROCS=2 $(GO) test -count=1 $(DETERMINISM_PKGS)
	GOMAXPROCS=4 $(GO) test -count=1 $(DETERMINISM_PKGS)

# Fuzz smoke: run every Fuzz* target of the fuzzed packages for ten
# seconds each (go test fuzzes one target per invocation). The parity
# evaluator's shortcuts rest on FuzzIncrementalMatchesBatch agreeing with
# the batch oracle, so this explores past the seed corpus that plain
# `go test` replays. A failing input lands in the package's
# testdata/fuzz/ for replay.
FUZZ_PKGS = ./internal/fault ./internal/ecc ./internal/reedsolomon ./internal/store
fuzz-smoke:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for name in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$name"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$pkg; \
		done; \
	done

# Orchestrator stress: 100 concurrent job submissions with random
# cancellations under the race detector. Skipped by -short, so the
# regular race pass doesn't pay for it; CI runs it as its own job.
stress-jobs:
	$(GO) test -race -run TestStressSubmitCancel -count=1 ./internal/jobs/

# Cluster chaos harness: a distributed campaign under the race detector
# while workers are randomly SIGKILLed, heartbeats dropped, and every
# chunk result delivered twice; the result must stay bit-identical to a
# quiet local run. Skipped by -short; CI runs it as its own job.
stress-cluster:
	$(GO) test -race -run TestChaosCampaign -count=1 -v ./internal/cluster/

# Streaming result-plane stress: 10k SSE subscribers on one campaign with
# random disconnects and a deliberately slow reader, under the race
# detector; every survivor must observe the terminal frame and the hub
# must end with zero subscribers. Skipped by -short; CI runs it as its
# own job.
stress-stream:
	$(GO) test -race -run TestStressStreamSubscribers -count=1 -v -timeout=10m ./internal/api/

check: build vet fmt-check staticcheck test race scenario-smoke

# The end-to-end benchmark harness is its own module (citbench/go.mod,
# replacing repro with this checkout), so `go build ./...` above never
# compiles it; this builds and tests it against the current API.
citbench-test:
	cd citbench && $(GO) test ./...

# Scenario-registry smoke: the catalog must print (every plugin's init
# ran and validated) and a short rowhammer campaign must survive the
# race detector end-to-end through the public simulation pipeline.
scenario-smoke:
	$(GO) run ./cmd/citadel-sim -list-scenarios >/dev/null
	$(GO) test -race -run 'TestRowhammerEndToEnd' -count=1 ./internal/scenario/

# Engine performance gate: the Monte Carlo trial-loop microbenchmarks
# (incremental vs batch evaluation, the sampler and TSV-SWAP layers, and
# the Figure-4 striping study) plus the timing model's
# layers (the access path, concurrent runs, parity caching, the LLC
# model on a hit-heavy and a miss-heavy stream, the address layout and
# the request generator), funneled through cmd/benchjson into a
# benchstat-compatible JSON report. Every group runs five times
# (-count=5) so the gate can compare medians.
# `jq -r '.raw[]' BENCH_faultsim.json | benchstat /dev/stdin` renders it;
# keep two reports around to benchstat before/after a change.
bench.out:
	$(GO) test -run xxx -count=5 -bench 'BenchmarkTrials|BenchmarkTrialStateRun|BenchmarkParityStateAdd|BenchmarkShortCampaigns' \
		-benchmem ./internal/faultsim/ > bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkRareEventTail' ./internal/rare/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkRowhammerArrivals' -benchmem ./internal/scenario/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkSamplerAppendLifetime' -benchmem ./internal/fault/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkSwapperApplyReset' -benchmem ./internal/tsv/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkMonteCarloTrialThroughput|BenchmarkFig4StripingReliability' \
		-benchmem . >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkBroadcastFanout' -benchmem ./internal/stream/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkJobPoll' -benchmem ./internal/api/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkAccessSlices|BenchmarkParityCacheHitRate|BenchmarkRunParallel' \
		-benchmem ./internal/perfsim/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkCacheAccess|BenchmarkCacheAccessMisses' -benchmem ./internal/cache/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkLayoutSpan' -benchmem ./internal/stack/ >> bench.out
	$(GO) test -run xxx -count=5 -bench 'BenchmarkGeneratorNext' -benchmem ./internal/workload/ >> bench.out

bench: bench.out
	$(GO) run ./cmd/benchjson -o BENCH_faultsim.json < bench.out
	@rm -f bench.out
	@echo wrote BENCH_faultsim.json

# Regression gate: rerun the bench groups and fail on a >10% drop in the
# median of a tracked throughput (trials/s, requests/s, ...) or any rise
# in the median allocs/op vs the committed BENCH_faultsim.json baseline.
# Refresh the baseline with `make bench` after an intentional change.
bench-check: bench.out
	$(GO) run ./cmd/benchjson -compare BENCH_faultsim.json < bench.out
	@rm -f bench.out

# Full benchmark sweep (every table/figure regeneration; slow).
bench-all:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
