GO ?= go

.PHONY: build test vet fmt lint benchmark-module verify determinism bench-batch profile serve-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

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

# Batch-scheduler smoke: two experiments sharing Desk runs through the
# warm/render scheduler at two jobs.
bench-batch:
	$(GO) run ./cmd/ags-bench -exp table1,fig18 -jobs 2 -q

# Streaming-server demo: two concurrent camera streams through one
# slam.Server under the race detector — the quickest end-to-end check that
# the multi-session surface is race-clean.
serve-demo:
	$(GO) run -race ./examples/multistream

# Profile a frame the way the baseline pipeline spends it: fig4 warms one
# full Desk/baseline run (RefineBest and full mapping on every frame, what
# the benchmark's desk_baseline workload times) and then re-tracks its frames
# with the pipeline's sparse refiner (the run's learning rate, one pixel per
# 2x2 block), serially, under pprof — so a kernel change starts from the
# profile the last one was led by instead of a synthetic render loop.
# Inspect with: go tool pprof -top cpu.pprof (or mem.pprof).
profile:
	$(GO) run ./cmd/ags-bench -exp fig4 -jobs 1 -workers 1 -q -cpuprofile cpu.pprof -memprofile mem.pprof
