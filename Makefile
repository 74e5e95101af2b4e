# Developer entry points. Benchmark targets all go through
# cmd/benchreport so local runs produce exactly the JSON schema CI
# consumes (internal/benchio, schema rmq-bench/v1).

GO ?= go

# Benchmarks gated by CI. The CI bench job reads both lists through
# `make -s gate-bench` and `make -s gate-pkgs`, so they live only here.
GATE_BENCH = BenchmarkClimb50$$|BenchmarkAblationClimb|BenchmarkRMQIteration50|BenchmarkJoinCost|BenchmarkNewJoin|BenchmarkStrictlyDominates|BenchmarkStepSteadyState|BenchmarkApproxFrontiers|BenchmarkParallelScaling|BenchmarkWorkloadThroughput|BenchmarkServerThroughput|BenchmarkSnapshotEncode|BenchmarkSnapshotRestore|BenchmarkWarmStartPull|BenchmarkDominatesColumns|BenchmarkAdmissionProbe
GATE_PKGS  = . ./internal/core ./internal/costmodel ./internal/cost ./internal/cache ./internal/server
BENCH_OUT ?= BENCH_$(shell date +%F).json
THRESHOLD ?= 0.2

.PHONY: build test race vet fmt lint rmqlint gate-bench gate-pkgs bench bench-full bench-diff bench-baseline profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

## lint: staticcheck plus the module's own invariant analyzers
## (cmd/rmqlint: hotalloc, lockorder, detrand, ctxloop, benchtimer).
lint: rmqlint
	staticcheck ./...

rmqlint:
	$(GO) run ./cmd/rmqlint ./...

## gate-bench, gate-pkgs: print the gated benchmark pattern and package
## list (run with make -s so only the value is printed).
gate-bench:
	@printf '%s\n' '$(GATE_BENCH)'

gate-pkgs:
	@printf '%s\n' '$(GATE_PKGS)'

## bench: run the CI-gated microbenchmarks, writing $(BENCH_OUT).
bench:
	$(GO) run ./cmd/benchreport run -bench '$(GATE_BENCH)' \
		-packages "$(GATE_PKGS)" -benchtime 1s -out $(BENCH_OUT)

## bench-full: the full suite (figure regenerations included) at 1x.
bench-full:
	$(GO) run ./cmd/benchreport run -bench . -packages ./... \
		-benchtime 1x -timeout 30m -out $(BENCH_OUT)

## bench-diff: compare a fresh gated run against the checked-in
## baseline, failing on >$(THRESHOLD) ns/op or allocs/op regression (the CI gate).
bench-diff:
	$(GO) run ./cmd/benchreport run -bench '$(GATE_BENCH)' \
		-packages "$(GATE_PKGS)" -benchtime 1s -out /tmp/rmq-bench-head.json
	$(GO) run ./cmd/benchreport diff -threshold $(THRESHOLD) \
		bench/baseline.json /tmp/rmq-bench-head.json

## bench-baseline: refresh the checked-in regression baseline from the
## current tree (run when hot-path performance changes intentionally).
bench-baseline:
	$(GO) run ./cmd/benchreport run -bench '$(GATE_BENCH)' \
		-packages "$(GATE_PKGS)" -benchtime 1s -count 3 \
		-label "CI regression gate baseline" -out bench/baseline.json

## profile: CPU + allocation pprof over the full-iteration benchmark,
## written under bench/profiles/ (gitignored), so perf PRs start from a
## flame graph instead of guesswork. Inspect with
## `go tool pprof -http=: bench/profiles/cpu.pprof` (or mem.pprof; the
## test binary next to them resolves symbols).
profile:
	mkdir -p bench/profiles
	$(GO) test -run '^$$' -bench BenchmarkRMQIteration50 -benchtime 2s \
		-cpuprofile bench/profiles/cpu.pprof \
		-memprofile bench/profiles/mem.pprof \
		-o bench/profiles/core.test ./internal/core
	@echo "profiles in bench/profiles/: cpu.pprof, mem.pprof"
