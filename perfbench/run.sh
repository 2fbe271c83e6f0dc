#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
# Run it from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the daemon's job stores all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/stores" "$@"
