#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from (the
# repository root) and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay inside the
# checkout, under .bench_build. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
