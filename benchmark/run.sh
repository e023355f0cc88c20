#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
