#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0`.
# Every file it writes stays under .bench_build/ in the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --artifacts "$build/artifacts" "$@"
