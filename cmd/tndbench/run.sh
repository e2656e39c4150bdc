#!/usr/bin/env bash
# Builds cmd/tndbench from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash cmd/tndbench/run.sh --workload mine-paper --seed 20050405 --seconds 30 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory; the Go toolchain works
# offline and reads no per-user configuration.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/cmd/tndbench" && go build -o "$out/tndbench" .)
exec "$out/tndbench" "$@"
