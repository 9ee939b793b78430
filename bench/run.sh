#!/usr/bin/env bash
# Builds prbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload regional-1000 --seed 3 --seconds 10 --trace 0
#
# Everything the build writes (the binary, Go's build cache and
# config) stays under .bench_build/ in the repository root, and the
# build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/prbench" ./cmd/prbench)
exec "$out/prbench" "$@"
