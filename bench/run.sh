#!/usr/bin/env bash
# Builds bench/e2e and runs it with the given flags: the command BENCHMARK.json
# names. Everything the toolchain and the harness write (build cache, binary,
# scratch traces, WAL directories, span files) stays under .bench_build/ in the
# checkout, which .gitignore lists.
#
#   bash bench/run.sh --workload serve-mixed --seed 7 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the harness builds against the repository it sits in" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
# XDG_CONFIG_HOME: the toolchain keeps its telemetry counters there.
XDG_CONFIG_HOME="$build/config" go build -o "$build/e2e" ./bench/e2e
# The harness's scratch directory is given relative to the checkout: its trace
# path goes into a -workload spec, where a comma in an absolute checkout path
# would split it.
TMPDIR=.bench_build/tmp exec "$build/e2e" "$@"
