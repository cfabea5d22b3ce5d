GO ?= go
FUZZTIME ?= 10s
SOAK_DURATION ?= 30s
SOAK_CLIENTS ?= 12
SOAK_KILLS ?= 12

.PHONY: all build vet test race fuzz check bench bench-go bench-check bench-smoke perfbench-smoke bench-ablation trace serve coord soak soak-cluster soak-jobs clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke-fuzz the native targets: FuzzDomainLaws throws arbitrary
# element vectors at every registered abstract domain's lattice laws
# (meet commutativity/associativity/idempotence, ⊤/⊥ identities,
# widening descent); the analysis fuzzers are seeded from
# internal/core/testdata/*.f (FuzzSessionDelta additionally checks that
# any session edit sequence matches a cold analysis of the final text);
# the job-manifest fuzzer is seeded with handwritten batch JSON. All
# must stay crash-free.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDomainLaws -fuzztime=$(FUZZTIME) ./internal/domain
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/parser
	$(GO) test -run='^$$' -fuzz=FuzzAnalyze -fuzztime=$(FUZZTIME) ./ipcp
	$(GO) test -run='^$$' -fuzz=FuzzSessionDelta -fuzztime=$(FUZZTIME) ./ipcp
	$(GO) test -run='^$$' -fuzz=FuzzJobManifest -fuzztime=$(FUZZTIME) ./internal/serve

# The full gate: what CI (and a pre-commit run) should pass. race runs
# the whole suite under the race detector, including the parallel
# pipeline tests (ipcp.TestParallelMatchesSerial and friends).
check: vet build race fuzz

# Write the benchmark baseline: ns/op, allocs/op, and MB/s per exhibit
# plus the serial-vs-parallel sweep speedup, as BENCH_ipcp.json.
bench:
	$(GO) run ./cmd/ipcp-bench -out BENCH_ipcp.json

# The raw Go benchmarks (per-exhibit and parallelism sweeps).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the baseline and gate it three ways: the parallel sweep
# speedup (skipped below 4 CPUs), the incremental-analysis warm/cold
# ratios, and allocations per op against the committed baseline (fails
# if table2/analyze-serial allocs grow more than 10%).
bench-check:
	$(GO) run ./cmd/ipcp-bench -out BENCH_ipcp.json.new -min-speedup 2 -baseline BENCH_ipcp.json
	mv BENCH_ipcp.json.new BENCH_ipcp.json

# Only the solver ablation: worklist vs binding-graph propagation per
# jump-function kind, with jf_evals_per_op (the paper's §3.1.5 cost
# unit) reported alongside ns/op and allocs/op.
bench-ablation:
	$(GO) test -run='^$$' -bench=BenchmarkPropagationSolvers -benchmem .

# A fast CI smoke of the benchmark harness: few iterations, same
# exhibits and gates minus the timing-sensitive ones.
bench-smoke:
	$(GO) run ./cmd/ipcp-bench -quick -out /tmp/bench-smoke.json -baseline BENCH_ipcp.json

# A fast CI smoke of the end-to-end benchmark (perfbench/, declared in
# BENCHMARK.json): its unit tests in short mode, then a 5-second
# untraced run of each declared workload. Fails unless every run's
# result line reports every answer correct and no failed operation.
perfbench-smoke:
	$(GO) -C perfbench test -short ./...
	@for wl in cold-corpus daemon-edits; do \
		line=$$(bash perfbench/run.sh --workload $$wl --seed 1 --seconds 5 --trace 0 | tail -n 1) || exit 1; \
		echo "$$wl: $$line"; \
		case "$$line" in *'"correct":true'*) ;; *) echo "$$wl: answers not correct" >&2; exit 1;; esac; \
		case "$$line" in *'"failed":0,'*|*'"failed":0}'*) ;; *) echo "$$wl: operations failed" >&2; exit 1;; esac; \
	done

# Print one representative analysis's per-phase trace as JSON: the
# machine-readable counterpart of `ipcp -trace` (CI validates this
# document's schema; see docs/architecture.md for the phase table).
trace:
	$(GO) run ./cmd/ipcp-bench -trace

# Run the crash-only analysis service on :8077 (see docs/robustness.md
# for the endpoint and tuning reference).
serve:
	$(GO) run ./cmd/ipcp-serve

# Chaos soak: hammer a live server with $(SOAK_CLIENTS) concurrent
# clients for $(SOAK_DURATION) while faults cycle through every pipeline
# phase. Passes only if the server never exits, answers every request
# with well-formed JSON from the documented status set, trips and
# recovers its circuit breaker, and drains back to the baseline
# goroutine count.
soak:
	IPCP_SOAK_DURATION=$(SOAK_DURATION) IPCP_SOAK_CLIENTS=$(SOAK_CLIENTS) \
		$(GO) test -count=1 -run TestChaosSoak -v ./internal/serve

# Run the sharded coordinator on :8076 against three local backends
# started by hand (see docs/robustness.md for the multi-node runbook).
coord:
	$(GO) run ./cmd/ipcp-coord -backends 127.0.0.1:8077,127.0.0.1:8078,127.0.0.1:8079

# Multi-node chaos soak: three real backends behind the coordinator,
# one hard-killed and restarted at a time while probabilistic analyzer
# faults fire, under the race detector. Passes only if every 200 is
# byte-identical to the single-node reference, availability over valid
# programs stays >= 99%, reroutes and hedges both engaged, and the
# whole fleet drains back to the baseline goroutine count.
soak-cluster:
	IPCP_SOAK_DURATION=$(SOAK_DURATION) IPCP_SOAK_CLIENTS=$(SOAK_CLIENTS) \
		$(GO) test -count=1 -race -run TestClusterChaosSoak -v ./internal/cluster

# Durable-queue crash soak: one acknowledged batch, $(SOAK_KILLS)
# hard-kill/reboot cycles on the same WAL directory while it executes,
# under the race detector. Passes only if every acked job reaches a
# terminal state, every completed result is byte-identical to the
# synchronous single-shot reference, and the poison pills quarantine
# instead of retrying forever.
soak-jobs:
	IPCP_JOBS_SOAK_KILLS=$(SOAK_KILLS) \
		$(GO) test -count=1 -race -run TestJobsCrashSoak -v ./internal/serve

clean:
	$(GO) clean -testcache
