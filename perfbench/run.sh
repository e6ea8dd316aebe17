#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload warm_text --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Everything the Go toolchain and the
# benchmark write (build cache, binary, span files) goes under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; no go.mod here" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -out "$out" "$@"
