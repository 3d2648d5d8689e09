#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build and module caches, the go
# command's own config (telemetry) and the binary live in .bench_build/
# there, so a run writes nothing outside the checkout; the build is not
# part of any measured time.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
