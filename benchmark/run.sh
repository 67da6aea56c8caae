#!/bin/sh
# One full benchmark set from the repository root: every workload three
# times untraced, interleaved, then once traced; prints the metric table
# and writes benchmark/out/set-<time>.json for `compare`. Arguments pass
# through, e.g. `benchmark/run.sh -seed 1` or `benchmark/run.sh -scale 0.1`
# for the half-minute smoke run.
set -eu
cd "$(dirname "$0")/.."
exec go run ./benchmark "$@"
