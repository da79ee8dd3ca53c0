#!/usr/bin/env bash
# The one command of the benchmark, from any directory.
#
#   benchmark/run.sh                    the whole suite (about four minutes)
#   benchmark/run.sh --seed 2           the suite on another seed
#   benchmark/run.sh check-repeat       the suite twice: do two sets of runs agree?
#   benchmark/run.sh --workload guard_hot --seed 1 --seconds 28 --trace 0
#                                       one run, as BENCHMARK.json's command makes it
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
