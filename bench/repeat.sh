#!/usr/bin/env bash
# Repeatability check: K untraced runs of every workload (default 10), each a
# process of its own on its own seed, with every end-to-end metric's quartile
# spread and first-half/second-half drift printed beside its bound from
# BENCHMARK.json. Exits non-zero if any metric is outside its bound.
#
#   bash bench/repeat.sh [K] [extra e2e flags, e.g. -workload sweep-paper -seed 100]
set -euo pipefail
k="${1:-10}"
shift || true
exec bash "$(dirname "$0")/run.sh" -repeat "$k" "$@"
