#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout's root. Build cache, temporary files,
# the binary and trace artifacts all stay under .bench_build/ there.
#
#   bash perfbench/run.sh --workload clean-read --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$build" "$@"
