#!/usr/bin/env bash
# Builds the server and the benchmark from the sources of this checkout,
# then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload prov-query --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything it writes stays in the
# checkout: _build/ and _benchmark/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark: run from the root of a WOLVES checkout" >&2
  exit 2
fi

# No shared build cache outside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
