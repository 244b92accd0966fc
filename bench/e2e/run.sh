#!/usr/bin/env bash
# The end-to-end benchmark: build it, then run it.
#
# One workload, one result line (what BENCHMARK.json's command runs):
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
# The suite (every workload, each in its own process; see README.md):
#   bench/e2e/run.sh [--seed N] [--workload W] [--traced] [--smoke]
#                    [--repeat K] [--out DIR]
#
# The build lives in build-e2e/ at the repository root.  Build output goes
# to stderr, so the last line on stdout is always the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release ${generator[@]+"${generator[@]}"} >&2
fi
cmake --build "$build" --target e2e_bench -j "$jobs" >&2

for arg in "$@"; do
  if [[ "$arg" == "--trace" ]]; then
    exec "$build/e2e_bench" "$@"
  fi
done
exec python3 "$here/suite.py" --bin "$build/e2e_bench" "$@"
