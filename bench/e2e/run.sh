#!/usr/bin/env bash
# Build the end-to-end benchmark (oqsc_bench.exe) from source, then run it
# with the given arguments.  Build messages go to stderr; the benchmark's
# standard output is untouched.  Run from anywhere inside a checkout:
#
#   bash bench/e2e/run.sh --workload audit --seed 2006 --seconds 22 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
# No shared build cache: the build reads and writes only inside the checkout.
export DUNE_CACHE=disabled
dune build --root "$root" --display quiet ./bench/e2e/oqsc_bench.exe 1>&2
cd "$root"
exec "$root/_build/default/bench/e2e/oqsc_bench.exe" "$@"
