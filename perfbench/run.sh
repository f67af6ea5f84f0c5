#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload flood --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) stays
# under .bench_build/ in the current directory. The build fails — and so
# does this script, printing no result — when the SkyNet module is not
# in the parent directory of perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
