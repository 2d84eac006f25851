GO ?= go

.PHONY: build test vet fmt lint benchmark-module verify determinism bench-batch profile serve-demo size

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

# Determinism and kernel reference gate: run the splat participant
# equivalence tests (a pass on its caller alone and with a helper racing the
# caller for tiles and chunks, at several GOMAXPROCS; TestHelperMatchesSerialPass
# runs Render, Backward and Train) and the mapper's Adam step as a chunked pass a helper serves
# twice so a scheduling-dependent regression fails loudly instead of hiding
# behind one lucky interleaving, together with the kernels' independent
# checks: the full-walk and lattice references (each runs Render-then-Backward
# and Train, on its caller alone and with a helper), the per-tile table order, the
# radix sort's depth order against the comparator, and the falloff
# exponential against math.Exp (CI runs this alongside verify).
determinism:
	$(GO) test -count=2 -run 'Determinism|Helper|FullWalkReference|LatticeReference|TileOrder|DepthOrder|Falloff' ./internal/splat/...
	$(GO) test -count=2 -run 'ApplyGrads' ./internal/mapper

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
# 2x2 block), one job at a time, under pprof — so a kernel change starts from the
# profile the last one was led by instead of a synthetic render loop.
# Inspect with: go tool pprof -top cpu.pprof (or mem.pprof).
profile:
	$(GO) run ./cmd/ags-bench -exp fig4 -jobs 1 -q -cpuprofile cpu.pprof -memprofile mem.pprof

# Lines of Go in the three parts the size counts in ROADMAP.md and CHANGES.md
# quote: non-test Go outside benchmarks/ and testdata/, test Go outside them,
# and the benchmark module.
GO_SRC = find . -name '*.go' -not -path './benchmarks/*' -not -path '*/testdata/*'
size:
	@echo "non-test Go  $$($(GO_SRC) ! -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go      $$($(GO_SRC) -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "benchmarks/  $$(find ./benchmarks -name '*.go' -exec cat {} + | wc -l)"
