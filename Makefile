# Developer entry points. Benchmark targets all go through
# cmd/benchreport so local runs produce exactly the JSON schema CI
# consumes (internal/benchio, schema rmq-bench/v1).

GO ?= go

# Benchmarks gated by CI. The CI bench job runs `make bench-diff`, so
# both lists live only here.
GATE_BENCH = BenchmarkClimb50$$|BenchmarkClimbLarge|BenchmarkRMQLarge|BenchmarkAblationClimb|BenchmarkRMQIteration50|BenchmarkJoinCost|BenchmarkNewJoin|BenchmarkStrictlyDominates|BenchmarkStepSteadyState|BenchmarkApproxFrontiers|BenchmarkParallelScaling|BenchmarkWorkloadThroughput|BenchmarkServerThroughput|BenchmarkSnapshotEncode|BenchmarkSnapshotRestore|BenchmarkWarmStartPull|BenchmarkDominatesColumns|BenchmarkAdmissionProbe|BenchmarkBucketFill|BenchmarkSyncPull
GATE_PKGS  = . ./internal/core ./internal/costmodel ./internal/cost ./internal/cache ./internal/server
BENCH_OUT ?= BENCH_$(shell date +%F).json
THRESHOLD ?= 0.2
# The commit bench-diff compares against: HEAD^ when the working tree
# is clean (the change is the last commit), HEAD when it has uncommitted
# edits (the change is those edits).
BASE ?= $(shell git diff --quiet HEAD 2>/dev/null && echo HEAD^ || echo HEAD)

.PHONY: build test race vet fmt lint rmqlint bench bench-full bench-diff bench-baseline profile

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

## bench: run the CI-gated microbenchmarks, writing $(BENCH_OUT).
bench:
	$(GO) run ./cmd/benchreport run -bench '$(GATE_BENCH)' \
		-packages "$(GATE_PKGS)" -benchtime 1s -out $(BENCH_OUT)

## bench-full: the full suite (figure regenerations included) at 1x.
bench-full:
	$(GO) run ./cmd/benchreport run -bench . -packages ./... \
		-benchtime 1x -timeout 30m -out $(BENCH_OUT)

## bench-diff: the benchmark gate, also run by CI's bench job with
## BASE set to the pull request's base. Runs the gated benchmarks at
## -count 3 on the working tree, then on $(BASE) checked out in a
## temporary git worktree on the same host, and fails on a
## >$(THRESHOLD) ns/op or allocs/op regression against the base. Gate
## packages missing at BASE are skipped there; the diff only compares
## benchmarks both sides have. ns/op is hardware-sensitive, so the
## checked-in bench/baseline.json is only the fallback for a BASE that
## cannot be checked out or benchmarked. Reports land in bench/diff/.
bench-diff:
	@set -e; rm -rf bench/diff; mkdir -p bench/diff; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o bench/diff/benchreport ./cmd/benchreport; \
	bench/diff/benchreport run -bench '$(GATE_BENCH)' -packages "$(GATE_PKGS)" \
		-benchtime 1s -count 3 -label "bench-diff head" -out bench/diff/head.json; \
	ref=bench/baseline.json; \
	if git worktree add --detach "$$tmp/base" '$(BASE)' >/dev/null 2>&1 && \
		(cd "$$tmp/base" && pkgs="" && \
		for p in $(GATE_PKGS); do if [ -d "$$p" ]; then pkgs="$$pkgs $$p"; fi; done && \
		"$(CURDIR)/bench/diff/benchreport" run -bench '$(GATE_BENCH)' -packages "$$pkgs" \
			-benchtime 1s -count 3 -label "bench-diff base $(BASE)" \
			-out "$(CURDIR)/bench/diff/base.json"); then \
		ref=bench/diff/base.json; \
	else \
		echo "bench-diff: cannot benchmark $(BASE); diffing against bench/baseline.json" >&2; \
	fi; \
	bench/diff/benchreport diff -threshold $(THRESHOLD) "$$ref" bench/diff/head.json

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
