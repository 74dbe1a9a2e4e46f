#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; every
# argument passes through to main.exe (see README.md).  Run from the
# repository root:
#   bash bench/e2e/run.sh --workload kernels-inproc --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $root is not a full source checkout (no dune-project or lib/)" >&2
  exit 2
fi
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet -j 2 bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
