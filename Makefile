# Tier-1 gate: everything `make check` runs must stay green.

GO ?= go
REV ?= dev

# Third-party linters, pinned so CI is reproducible. They are fetched
# with `go run pkg@version`, which needs network access: the lint
# target runs them only when the module proxy is reachable (or when
# LINT_STRICT=1 forces the failure, as CI does).
STATICCHECK_VERSION ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: check fmt vet build test race fuzz lint bench-build bench experiments bench-json bench-gate bench-profile bench-allocs

check: fmt vet build race lint fuzz bench-build

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: the repo-invariant analyzers (always — they build
# from this module with no network), then the pinned third-party
# linters when they can be fetched. LINT_STRICT=1 (CI) turns a skipped
# third-party linter into a failure instead.
lint:
	$(GO) run ./cmd/matchlint ./...
	@if GOFLAGS= $(GO) run $(STATICCHECK_VERSION) ./... 2>/dev/null; then \
		echo "staticcheck: ok"; \
	elif [ "$(LINT_STRICT)" = "1" ]; then \
		echo "staticcheck failed or could not be fetched"; exit 1; \
	else \
		echo "staticcheck: skipped (offline or findings; set LINT_STRICT=1 to enforce)"; \
	fi
	@if GOFLAGS= $(GO) run $(GOVULNCHECK_VERSION) ./... 2>/dev/null; then \
		echo "govulncheck: ok"; \
	elif [ "$(LINT_STRICT)" = "1" ]; then \
		echo "govulncheck failed or could not be fetched"; exit 1; \
	else \
		echo "govulncheck: skipped (offline or findings; set LINT_STRICT=1 to enforce)"; \
	fi

# The repo benchmark (perfbench/) is its own module, so the targets
# above never compile it: vet and test it here, so an API change that
# breaks the benchmark fails the gate instead of the next benchmark run.
bench-build:
	cd perfbench && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test .

# Short fuzz smoke over the RBG1/RBG2 decoders: hostile bytes must be
# rejected with a typed error, never a panic or hostile allocation.
fuzz:
	$(GO) test ./internal/stream/ -run=^$$ -fuzz=FuzzOpenBinary -fuzztime=10s

# Root testing.B benchmarks: one per experiment table, quick mode.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Full-scale experiment tables (EXPERIMENTS.md is a captured run).
experiments:
	$(GO) run ./cmd/matchbench

# Machine-readable quick-scale capture: BENCH_$(REV).json (the perf
# trajectory; see cmd/matchbench -json).
bench-json:
	$(GO) run ./cmd/matchbench -quick -json -rev $(REV)

# Bench smoke gate: the newest capture must show no wall-time
# regressions against the previous one (exit 1 otherwise).
BENCH_OLD ?= BENCH_pr9.json
BENCH_NEW ?= BENCH_pr10.json
bench-gate:
	$(GO) run ./cmd/matchbench -compare $(BENCH_OLD) $(BENCH_NEW)

# Allocation-profile smoke: the allocs/op benchmarks for the pooled
# and allocation-flat paths — arena-fed bank builds and the batched
# field-update kernel in internal/sketch, session-reuse solves through
# the facade — at -benchtime=1x so CI sees the counters without paying
# a full benchmark run, plus the AllocsPerRun guards on a warm
# sparsifier builder cycle (with its forests built, and skipped below
# K) and a warm MiniOracle call.
bench-allocs:
	$(GO) test -run='^$$' -bench='BenchmarkBankBuildArena|BenchmarkOneSparseUpdate|BenchmarkBankUpdateBlock' -benchmem -benchtime=1x ./internal/sketch/
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./match/
	$(GO) test -run='^TestDeferredBuilder(KeepAll)?CycleAllocs$$' -v ./internal/sparsify/
	$(GO) test -run='^TestMiniOracleAllocs$$' -v ./internal/core/

# Profile the two dominant experiments (EA, E14) so the next perf PR
# starts from data; see "Profile snapshot" in EXPERIMENTS.md. Then
# profile the repo benchmark's cold-solve op (match package).
bench-profile:
	$(GO) test -run=^$$ -bench='BenchmarkEAblations|BenchmarkE14Workers' \
		-benchtime=1x -cpuprofile=cpu.pprof -memprofile=mem.pprof .
	$(GO) tool pprof -top -nodecount=10 repro.test cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space repro.test mem.pprof
	$(GO) test -run=^$$ -bench='BenchmarkSolveColdGNM256' \
		-benchtime=3x -cpuprofile=cold.cpu.pprof -memprofile=cold.mem.pprof ./match/
	$(GO) tool pprof -top -nodecount=10 match.test cold.cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space match.test cold.mem.pprof
