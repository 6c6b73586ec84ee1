#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — the binary, Go's build cache and temp files,
# and the benchmark's own scratch state — stays inside the checkout,
# under .bench_build/ and .bench_run-*/ (both git-ignored).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -buildvcs=false -o "$build/upkit-bench" .
BENCH_COMMIT="$(git -C "$root" describe --always --dirty 2>/dev/null || true)"
export BENCH_COMMIT
cd "$root"
exec "$build/upkit-bench" "$@"
