GO ?= go

.PHONY: build test race vet fmt lint bench benchmark-module verify determinism bench-batch profile serve-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages that own goroutines (codec worker pool, slam ME
# prefetch, splat render workers ride along via slam).
race:
	$(GO) test -race ./internal/codec ./internal/slam

vet:
	$(GO) vet ./...

# Repo-specific static analysis: ags-vet enforces the determinism contract
# (no map-iteration-order leaks, no wall-clock/global-rand reads, no rogue
# goroutine launch sites in internal packages) and the zero-alloc contract
# (//ags:hotpath functions must not allocate). Suppressions live next to the
# code as //ags:allow(check, reason); there is no baseline file.
lint:
	$(GO) run ./cmd/ags-vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchtime=1x .

# The benchmark (BENCHMARK.json) is a module of its own under benchmarks/, so
# `./...` from the root skips it: vet it and run its smoke test from inside.
benchmark-module:
	$(GO) vet -C benchmarks ./...
	$(GO) test -C benchmarks ./...

# Tier-1 gate: formatting, static checks (vet + ags-vet), the benchmark
# module, and the full test suite under the race detector so new concurrency
# is always race-checked.
verify: fmt vet lint benchmark-module
	$(GO) test -race ./...

# Determinism gate: run the splat sharding equivalence tests twice so a
# scheduling-dependent regression fails loudly instead of hiding behind one
# lucky interleaving (CI runs this alongside verify).
determinism:
	$(GO) test -count=2 -run Determinism ./internal/splat/...

# Batch-scheduler smoke: perf-me, perf-render (which also gates the
# contexted-vs-one-shot digests and allocation ratio), perf-serve (which
# gates cross-session digest equality and the context-pool capacity bound),
# perf-compact (which gates the compacted-vs-uncompacted digest equality and
# the reclaimed-slot accounting), perf-chaos (which gates checkpoint-replay
# recovery under injected faults: digests bit-identical to sequential runs
# after an unclean node kill and a mid-frame sever) and a pipeline experiment
# through the warm/render scheduler at two jobs, emitting the
# machine-readable report (CI uploads bench.json so the perf trajectory is
# recorded). table1 rides along because perf-me alone is dataset-only and
# would leave the report's per-run wall-time section empty. perf-grid boots
# its own 2-worker loopback grid and gates digest-verified distributed
# execution plus retry over a killed worker.
bench-batch:
	$(GO) run ./cmd/ags-bench -exp perf-me,perf-render,perf-serve,perf-compact,perf-fleet,perf-chaos,perf-grid,table1 -jobs 2 -json bench.json -q

# Streaming-server demo: two concurrent camera streams through one
# slam.Server under the race detector — the quickest end-to-end check that
# the multi-session surface is race-clean.
serve-demo:
	$(GO) run -race ./examples/multistream

# Profile a frame the way the baseline pipeline spends it: fig4 warms one
# full Desk/baseline run (RefineBest and full mapping on every frame, what
# the benchmark's desk_baseline workload times) and then re-tracks its frames,
# serially, under pprof — so a kernel PR starts from the profile the last one
# was led by instead of a synthetic render loop.
# Inspect with: go tool pprof -top cpu.pprof (or mem.pprof).
profile:
	$(GO) run ./cmd/ags-bench -exp fig4 -jobs 1 -workers 1 -q -cpuprofile cpu.pprof -memprofile mem.pprof
