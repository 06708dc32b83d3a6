#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout of the repository:
#
#   bash _bench/run.sh --workload serve-spill --seed 1 --seconds 10 --trace 0
#
# The benchmark is a Go module of its own (_bench/go.mod) that reaches the
# repository's packages through a replace directive. Everything the build
# writes (compiler cache, binary, Go's own config) stays under
# .bench_build; results and span logs go to .bench_out.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/_bench" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
