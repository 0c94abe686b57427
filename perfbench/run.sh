#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, module cache, binary,
# temporary files) and the trace files the benchmark writes stay under
# .bench_build/ at the checkout's root. No network is used: modules
# resolve from the checkout alone.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
