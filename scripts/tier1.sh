#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/tier1.sh            # Release build in build/
#   scripts/tier1.sh asan-ubsan # ASan+UBSan build in build-asan/
#   scripts/tier1.sh --tsan     # TSan build in build-tsan/; runs the
#                               # service, decision-cache and concurrent
#                               # partition-search tests (the tsan test
#                               # preset filters to them) -- any reported
#                               # race fails the tier
#   scripts/tier1.sh --obs      # Release build, then a telemetry smoke
#                               # stage: netpartd --trace-out on a small
#                               # spec, validated by trace_check (the
#                               # trace must parse and contain the
#                               # partitioner / service / adaptive spans)
#                               # and its --metrics-out file grepped for
#                               # the service's {registry=service} rows
#                               # (its one churn wave must read
#                               # epoch_bumps 1), plus a small fleetd
#                               # run whose merged
#                               # multi-node trace/metrics/health exports
#                               # are validated by trace_check --fleet and
#                               # grepped for per-hop attribution,
#                               # {node=N} dimension rows and the
#                               # process-wide fleet.forwards counter
#   scripts/tier1.sh --bench    # Release build + tests, then the full
#                               # partition hot-path bench, emitting
#                               # BENCH_partition.json in the repo root;
#                               # NETPART_HW_CONCURRENCY defaults to
#                               # $(nproc) so the wall-clock gates record
#                               # what this host could test, and the new
#                               # artifact is diffed against the previous
#                               # one (scripts/bench_diff.py; warn-only
#                               # unless NETPART_BENCH_GATE=1; a smoke
#                               # baseline is refused, not diffed)
#   scripts/tier1.sh --batch    # Release build, then the batched-engine
#                               # lockdown: the differential property
#                               # suite (estimate_batch bitwise ==
#                               # estimate_into across batch shapes,
#                               # estimate_into and every fast path
#                               # bitwise == the reference estimate(),
#                               # one scratch shared across estimators,
#                               # and the concurrent-search and
#                               # work-stealing determinism cases), and
#                               # the degenerate-input fuzz sweeps
#   scripts/tier1.sh --lint     # Strict build (-Wshadow -Werror, preset
#                               # `strict`) plus clang-tidy over src/ when
#                               # clang-tidy is installed (the gcc-only CI
#                               # image skips that half gracefully), plus
#                               # the NP-R diagnostic-code cross-check
#                               # (every code npracer can emit must be
#                               # documented in DESIGN.md §14), plus
#                               # bench_diff.py's unit tests, plus the
#                               # reach census (scripts/reach_census.py:
#                               # every library function is kept by a
#                               # shipped binary or allowlisted with a
#                               # reason in scripts/reach_allowlist.txt;
#                               # its own -O0 trees in build-census/ and
#                               # build-census-e2e/) and its unit tests
#   scripts/tier1.sh --race     # npracer interleaving tier (preset
#                               # `race`: Release + NETPART_RACE=ON, in
#                               # build-race/).  Runs the detector suite:
#                               # known-racy fixtures must produce their
#                               # expected NP-R diagnostics, and the
#                               # instrumented shipped surfaces (service,
#                               # cache, sweep, telemetry, fleet sim) must
#                               # report ZERO unannotated findings across
#                               # every perturbed schedule -- any finding
#                               # fails the tier.  test_race_macros_off
#                               # then re-proves the compile-out contract
#                               # inside the instrumented build.
#   scripts/tier1.sh --fleet    # Release build, then the fleet lockdown:
#                               # the fleet unit suite, the 20-seed
#                               # crash/failover chaos tier, the npcheck
#                               # --fleet config lint (clean and NP-F
#                               # rejection cases), and the bench_fleet
#                               # --smoke gates (scaling, gossip
#                               # convergence, warm failover), whose
#                               # artifact goes to a temporary file: the
#                               # checked-in BENCH_fleet.json changes only
#                               # when regenerated on purpose, with
#                               # ./build/bench/bench_fleet --smoke from
#                               # the repository root
#
# The release tier always ends with two gates:
#   * npcheck over specs/ and the network presets -- the shipped artifacts
#     must be diagnostics-clean (see DESIGN.md §11);
#   * bench_partition_hotpath --smoke -- fails the tier if the estimator
#     fast path allocates in steady state, diverges bitwise from the
#     reference path, the service admission gate adds allocations to
#     the cached hot path, or a cold service miss allocates more than its
#     gated count (service_miss_allocations_bounded).
#
# Tests run in a random order (--schedule-random) so hidden inter-test
# dependencies surface, and --repeat until-pass:1 keeps every test to a
# single attempt -- a flaky test fails the tier instead of slipping through
# on retry.
set -euo pipefail
cd "$(dirname "$0")/.."

preset="${1:-release}"
obs_stage=0
bench_stage=0
lint_stage=0
batch_stage=0
fleet_stage=0
race_stage=0
if [[ "$preset" == "--tsan" ]]; then
  preset="tsan"
elif [[ "$preset" == "--obs" ]]; then
  preset="release"
  obs_stage=1
elif [[ "$preset" == "--bench" ]]; then
  preset="release"
  bench_stage=1
elif [[ "$preset" == "--batch" ]]; then
  preset="release"
  batch_stage=1
elif [[ "$preset" == "--fleet" ]]; then
  preset="release"
  fleet_stage=1
elif [[ "$preset" == "--lint" ]]; then
  preset="strict"
  lint_stage=1
elif [[ "$preset" == "--race" ]]; then
  preset="race"
  race_stage=1
fi

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"

if [[ "$batch_stage" == 1 ]]; then
  # Focused lockdown of the batched estimator engine and the
  # work-stealing sweep: the differential tier (bitwise batch == scalar,
  # scalar == reference, a scratch shared across estimators), steal-order
  # determinism under chaos yields, degenerate-input fuzzing, and the
  # speedup-gate unit tests.  A subset of the release tier, for fast
  # iteration on the engine itself.
  echo "== batched engine lockdown =="
  ./build/tests/test_property \
    --gtest_filter='*Batch*:*ParallelExhaustive*:GroupShares.*:RankKernel.*:*DeltaBitwise*:DeltaEval.*:*Materialize*:*FastPathBitwise*:SharedScratch.*:ThreadedPartitionSearchTest.*'
  ./build/tests/test_fuzz \
    --gtest_filter='DegenerateInputs.*:*StarvationPressure*'
  ./build/tests/test_coverage \
    --gtest_filter='SpeedupGateCoverage.*:GateSetCoverage.*'
  echo "== batched perf smoke =="
  # The bench's default output is the checked-in BENCH_partition.json; a
  # smoke artifact must never replace the full run there.
  smoke_json="$(mktemp)"
  ./build/bench/bench_partition_hotpath --smoke --json-out "$smoke_json" \
    >/dev/null
  rm -f "$smoke_json"
  echo "batch tier ok"
  exit 0
fi

if [[ "$fleet_stage" == 1 ]]; then
  # Focused lockdown of the multi-node fleet (DESIGN.md §12): unit suite,
  # the 20-seed crash chaos tier, the fleet config lint from both sides
  # of its exit contract, and the bench gates.  A subset of the release
  # tier, for fast iteration on the fleet control plane.
  echo "== fleet test stage =="
  ./build/tests/test_fleet
  ./build/tests/test_fleet_chaos
  echo "== fleet lint stage =="
  ./build/src/apps/npcheck --fleet nodes=4,replication=2 >/dev/null
  if ./build/src/apps/npcheck --fleet nodes=2,replication=3 >/dev/null 2>&1
  then
    echo "npcheck --fleet accepted replication > nodes (NP-F001)" >&2
    exit 1
  fi
  ./build/src/apps/fleetd nodes=4 replication=2 --check >/dev/null
  echo "== fleet bench gates =="
  # Every run would rewrite the checked-in artifact with its own
  # wall-clock timings.
  smoke_json="$(mktemp)"
  ./build/bench/bench_fleet --smoke --json-out "$smoke_json" >/dev/null
  rm -f "$smoke_json"
  echo "fleet tier ok"
  exit 0
fi

if [[ "$race_stage" == 1 ]]; then
  # npracer lockdown (DESIGN.md §14).  test_race carries both halves of
  # the tier's contract: the known-racy fixtures (which must light up
  # with their exact NP-R codes, proving the detector sees what it claims
  # to see) and the quiet gates over the instrumented shipped surfaces,
  # which explore() across perturbed schedules and hard-fail on any
  # finding.  test_race_macros_off runs here too: its translation unit
  # defines NETPART_RACE_FORCE_OFF, so even inside the instrumented
  # build it must observe every macro expanding to nothing.
  echo "== npracer interleaving tier =="
  ./build-race/tests/test_race
  ./build-race/tests/test_race_macros_off
  echo "race tier ok"
  exit 0
fi

if [[ "$lint_stage" == 1 ]]; then
  # The strict build above IS the first half of the lint tier (-Werror).
  # The second half needs clang-tidy, which the gcc-only toolchain image
  # does not ship -- gate, don't fail.
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy stage =="
    cmake --preset strict -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find src -name '*.cpp' -print0 |
      xargs -0 -n 8 -P "$(nproc)" clang-tidy -p build-strict --quiet
    echo "clang-tidy stage ok"
  else
    echo "clang-tidy not installed; skipping tidy half of --lint" >&2
  fi
  echo "== NP-R code table cross-check =="
  scripts/check_race_codes.sh
  echo "== bench_diff unit tests =="
  python3 scripts/test_bench_diff.py
  echo "== reach census unit tests =="
  python3 scripts/test_reach_census.py
  echo "== reach census =="
  python3 scripts/reach_census.py
  echo "lint tier ok (strict -Werror build passed)"
  exit 0
fi

ctest --preset "$preset" \
  --repeat until-pass:1 \
  -j "$(nproc)"

if [[ "$preset" == "release" ]]; then
  echo "== npcheck stage =="
  ./build/src/apps/npcheck specs/*.spec \
    --network paper >/dev/null
  for net in fig1 coercion metasystem; do
    ./build/src/apps/npcheck --network "$net" >/dev/null
  done
  echo "npcheck stage ok"

  echo "== perf smoke stage =="
  smoke_json="$(mktemp)"
  ./build/bench/bench_partition_hotpath --smoke --json-out "$smoke_json"
  rm -f "$smoke_json"
  echo "perf smoke stage ok"
fi

if [[ "$bench_stage" == 1 ]]; then
  echo "== partition hot-path bench =="
  # Wall-clock gates (parallel_speedup, batched_under_40ns) key off the
  # host's core count; pin it explicitly so the gate decision in the
  # artifact records what this host could actually test.  CI or a user
  # can override by exporting NETPART_HW_CONCURRENCY first.
  export NETPART_HW_CONCURRENCY="${NETPART_HW_CONCURRENCY:-$(nproc)}"
  prev_bench=""
  if [[ -f BENCH_partition.json ]]; then
    prev_bench="$(mktemp)"
    cp BENCH_partition.json "$prev_bench"
  fi
  ./build/bench/bench_partition_hotpath --json-out BENCH_partition.json
  if [[ -n "$prev_bench" ]]; then
    echo "== bench baseline diff =="
    # Warn-only by default: bench numbers move with the host.  On the
    # designated CI host, export NETPART_BENCH_GATE=1 to make a
    # regression against the checked-in baseline fail the tier.
    # Exit 2 means the previous artifact was a smoke run, which the diff
    # refuses to compare; warn-only mode lets the fresh full run replace it.
    if [[ "${NETPART_BENCH_GATE:-0}" == 1 ]]; then
      python3 scripts/bench_diff.py "$prev_bench" BENCH_partition.json \
        --gate
    else
      python3 scripts/bench_diff.py "$prev_bench" BENCH_partition.json ||
        [[ $? == 2 ]]
    fi
    rm -f "$prev_bench"
  fi
fi

if [[ "$obs_stage" == 1 ]]; then
  echo "== obs smoke stage =="
  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
  ./build/src/apps/netpartd \
    clients=2 requests=20 universe=8 workers=2 churn=1 \
    --trace-out "$workdir/trace.json" \
    --metrics-out "$workdir/metrics.txt" >/dev/null
  ./build/src/apps/trace_check "$workdir/trace.json" \
    partition.search svc.request svc.execute \
    adaptive.chunk adaptive.repartition
  grep -q "^counter partitioner.calls" "$workdir/metrics.txt" || {
    echo "metrics.txt lacks partitioner counters" >&2; exit 1; }
  grep -q "^counter requests{registry=service}" "$workdir/metrics.txt" || {
    echo "metrics.txt lacks the service's counters" >&2; exit 1; }
  grep -q "^latency cold{registry=service}" "$workdir/metrics.txt" || {
    echo "metrics.txt lacks the service's latency rows" >&2; exit 1; }
  # churn=1 is one wave, applied before client 0's 10th request: the
  # service observes exactly one epoch bump.
  grep -q "^counter epoch_bumps{registry=service} 1$" "$workdir/metrics.txt" || {
    echo "metrics.txt lacks the churn wave's epoch bump" >&2; exit 1; }

  # Fleet half: a small fleetd run exporting the merged multi-node
  # artifacts, validated structurally (--fleet checks per-node pid lanes,
  # parent-link closure, and parent/child timestamp order) plus the two
  # grep gates on the merged metrics dump: per-hop request attribution
  # and the {node=N} dimension rows.
  ./build/src/apps/fleetd \
    nodes=3 requests=120 crash=2 \
    --trace-out "$workdir/fleet_trace.json" \
    --metrics-out "$workdir/fleet_metrics.txt" \
    --health-out "$workdir/fleet_health.txt" >/dev/null
  ./build/src/apps/trace_check --fleet "$workdir/fleet_trace.json" \
    fleet.request fleet.forward fleet.serve
  grep -q "^latency fleet.request.total_us" "$workdir/fleet_metrics.txt" || {
    echo "fleet metrics lack per-hop attribution histograms" >&2; exit 1; }
  grep -q "{node=0}" "$workdir/fleet_metrics.txt" || {
    echo "fleet metrics lack per-node dimension rows" >&2; exit 1; }
  grep -q "^counter fleet.forwards " "$workdir/fleet_metrics.txt" || {
    echo "fleet metrics lack the process-wide fleet counters" >&2; exit 1; }
  grep -q "^node 0 alive=1" "$workdir/fleet_health.txt" || {
    echo "fleet health summary missing" >&2; exit 1; }
  echo "obs smoke stage ok"
fi
