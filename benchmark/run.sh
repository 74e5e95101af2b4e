#!/usr/bin/env bash
# Builds rmqbench from this checkout's sources and runs it with the given
# arguments from the checkout root, e.g.
#
#   bash benchmark/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# under .bench_build/ in the checkout; the toolchain never downloads.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/benchmark" build -o "$out/rmqbench" ./rmqbench
cd "$root"
exec "$out/rmqbench" "$@"
