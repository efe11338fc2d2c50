#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build and module caches, temporary files, the
# binary, the file-stream input) stays under .bench_build/ at the root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/perfbench-work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
