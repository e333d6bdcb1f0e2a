#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags,
# from the repository root:
#
#   bash benchmark/run.sh --workload service-read --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the go command's configuration
# (and its local telemetry) and the binary stay under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$src" build -buildvcs=false -o "$out/cdrc-benchmark" .
exec "$out/cdrc-benchmark" "$@"
