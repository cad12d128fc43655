# Targets mirror the CI jobs in .github/workflows/ci.yml so local and
# CI invocations are identical.

GO ?= go

.PHONY: all build build-examples test race bench bench-delta profile profile-fanout lint fmt recover-smoke dist-smoke

all: build lint test

build:
	$(GO) build ./...

# The examples are the documented face of the pipeline API; building
# them separately (mirrored by a dedicated CI step) guarantees the
# README/examples surface can never drift from the code.
build-examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The crash-recovery drill (mirrored by CI's recovery-smoke job): kill
# the operator at every armed faultpoint under the race detector,
# restore from the latest checkpoint, replay, and verify exactness.
# The transport chaos case rides the same matrix: SQUALL_SMOKE_FLAKY
# doubles as the link fault rate for dropped/duplicated/torn frames.
# Every test runs at GOMAXPROCS 1, 2 and 4 (-cpu), so exactness that
# holds only on one core fails here; the local join indexes ride the
# same core-count matrix.
recover-smoke:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/faultpoint/ ./internal/storage/ ./internal/transport/ -run 'Recovery|Corrupt|Leak|Faultpoint|Backend|Chaos'
	$(GO) test -count=1 -cpu 1,2,4 ./internal/join/

# The distributed smoke drill (mirrored by CI's distributed-smoke
# job): two real joinworker processes, a ~120k-tuple skewed equi-join
# with forced migration over the TCP links, exact pair-count agreement
# with the single-process run, and clean process teardown.
dist-smoke:
	GO=$(GO) ./scripts/distsmoke.sh

# Full benchmark suite; CI runs the 1x smoke variant of the same set.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Benchmarks versus the committed BENCH_*.json trajectory, via the
# same script CI's bench-smoke job runs (scripts/benchdelta.sh), so
# the benchmark set and gating flags cannot drift between local and CI
# runs. Exits non-zero on a >25% regression; BENCHDELTA_FLAGS passes
# extra cmd/benchdelta flags (e.g. -minscale 2.5, -tolerance -1).
bench-delta:
	GO=$(GO) ./scripts/benchdelta.sh $(BENCHDELTA_FLAGS)

# Committed pprof recipe for the next hot-path hunt: run one evaluation
# query under the CPU profiler and print the top consumers. Tune -sf /
# -zipf for longer or more skewed runs.
profile:
	$(GO) run ./cmd/joinrun -query EQ5 -op dynamic -j 16 -sf 0.05 -zipf Z2 -cpuprofile cpu.pprof
	$(GO) tool pprof -top -nodecount=20 cpu.pprof

# Profile the emit plane: the same skewed query with sink invocation
# moved onto dedicated emit workers (-emitworkers 0 resolves to
# GOMAXPROCS), so the probe->materialize->emit fanout path dominates
# the profile instead of the inline sink.
profile-fanout:
	$(GO) run ./cmd/joinrun -query EQ5 -op dynamic -j 16 -sf 0.05 -zipf Z2 -emitworkers 0 -cpuprofile fanout.pprof
	$(GO) tool pprof -top -nodecount=20 fanout.pprof

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

fmt:
	gofmt -w .
