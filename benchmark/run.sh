#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#	bash benchmark/run.sh --workload drone-l4 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# traces) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOPROXY=off GOSUMDB=off GOWORK=off

(cd "$root/benchmark" && go build -o "$out/dronebench" .) >&2
exec "$out/dronebench" "$@"
