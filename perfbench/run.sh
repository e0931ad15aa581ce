#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload answer-miss --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the run's
# snapshots, segments and span files.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Build only from what is on disk: never reach for a module proxy or a
# newer toolchain.
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
