#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload stream-direct --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root: the Go build cache, the binary and, for a traced
# run, the span files.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
