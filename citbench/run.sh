#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash citbench/run.sh --workload sweep-direct --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache and the binary live in
# .bench_build/ under the current directory, so the benchmark writes
# nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/citbench" .)
exec "$out/citbench" "$@"
