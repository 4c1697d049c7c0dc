# Development targets. The repo is stdlib-only; everything below is
# plain go tool invocations.

GO ?= go

.PHONY: all build test race bench bench-scale bench-rpc bench-check bench-all obs-smoke agent-smoke ctl-smoke scripts-test perfbench-test fmt lint vet verify

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The race-focused
# smoke tests (rl.TestTrainRaceSmoke, telemetry sink/registry
# concurrency tests) are sized to keep this tier fast.
race:
	$(GO) test -race ./...

# bench measures the inference hot path (forward pass, full decide in
# both modes, one simulated episode) and writes machine-readable JSONL
# to BENCH_inference.json (schema: EXPERIMENTS.md, "Inference
# benchmarks").
bench:
	$(GO) run ./cmd/bench -out BENCH_inference.json

# bench-scale measures end-to-end episode throughput (flows/sec) on
# synthetic 100/500/1000-node topologies under the sequential engine,
# per-decision vs batched decision resolution, and writes
# BENCH_scale.json (schema: EXPERIMENTS.md, "Scale benchmarks").
bench-scale:
	$(GO) run ./cmd/bench -scale -out BENCH_scale.json

# bench-rpc measures the decision round trip in-process vs across the
# agentnet socket boundary (3 loopback agent servers) on an identically
# seeded run, and writes BENCH_rpc.json (schema: EXPERIMENTS.md,
# "Decision RTT"). The run itself enforces the equivalence oracle.
bench-rpc:
	$(GO) run ./cmd/bench -rpc -out BENCH_rpc.json

# bench-check regression-gates the sequential decide hot path: a fresh
# cmd/bench run must stay within +25% ns/op of the committed
# BENCH_inference.json baseline.
bench-check:
	./scripts/bench_check.sh

# bench-all runs every go test benchmark in the repo (figures, micro,
# ablations); this takes much longer than `make bench`.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# obs-smoke end-to-end checks the live observability endpoint: it runs a
# short coordsim with -obs-addr on a free port and curls /metrics,
# /snapshot, and /run during the -obs-wait hold.
obs-smoke:
	./scripts/obs_smoke.sh

# agent-smoke end-to-end checks the networked agent tier: it spawns 3
# real agentd processes, asserts the remote run's metrics are
# byte-identical to the in-process run (equivalence oracle) with nonzero
# RTT samples, then kills one agentd mid-run under an agent-kill chaos
# schedule and asserts the recovery report sees the dip.
agent-smoke:
	./scripts/agent_smoke.sh

# ctl-smoke end-to-end checks the experiment-controller tier: it starts
# cmd/ctl over a throwaway store, submits a 2-point sweep over HTTP,
# waits for it to finish, verifies every manifest artifact resolves
# through the content-addressed blob route, and asserts a recalc
# re-renders byte-identically from the stored grid log.
ctl-smoke:
	./scripts/ctl_smoke.sh

# scripts-test runs the shell-level unit tests (currently the
# bench_check.sh gate semantics: REGRESSED vs NO BASELINE exit codes).
scripts-test:
	./scripts/test_bench_check.sh

# perfbench-test vets and tests the benchmark module. perfbench/ is its
# own Go module (replace distcoord => ../), so `go build ./...` and
# `go test ./...` at the root never compile it; this target catches API
# changes in the root module that would break the benchmark.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fmt:
	gofmt -l -w .

# lint fails on unformatted files (without rewriting them) and runs vet,
# natively and for arm64 so the non-amd64 fallback (batch_noasm.go, the
# generic kernels) keeps compiling.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

vet:
	$(GO) vet ./...

# verify is the pre-merge gate: build, full suite, lint, race detector,
# the shell-level script tests, and the benchmark module's tests.
verify: build test lint race scripts-test perfbench-test
