#!/usr/bin/env python3
"""Compare two BENCH_partition.json artifacts and report regressions.

Usage:
    scripts/bench_diff.py OLD.json NEW.json [--gate] [--tolerance PCT]

Prints a table of the key perf metrics with old/new values and the
relative change, flagging each row as `ok`, `improved`, `regressed`, or
`new` (metric absent from the old artifact -- e.g. a bench section that
did not exist yet).  By default the script always exits 0: bench numbers
move with the host, so off the designated CI machine the diff is
informational.  With --gate, any `regressed` row beyond the tolerance
fails the run (exit 1), which is how CI pins the checked-in baseline.

A smoke artifact (`meta.smoke: true`, reduced repetitions) is not
comparable with a full run: such a pair is refused with exit 2, gate or
not, instead of reporting the smoke run's noise as regressions.

Regression direction is per metric: ns/eval, us/search and allocation
counts regress when they go up; throughput and speedup regress when they
go down.  A zero baseline (allocations per warm service hit) must stay
zero.  The tolerance (default 10%) absorbs run-to-run jitter;
min-of-windows timing in the bench keeps genuine changes well above
that.
"""

import argparse
import json
import sys


def lookup(doc, path):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def allocations_per_miss(doc):
    """Heap allocations per cold service miss (preflight section)."""
    allocations = lookup(doc, ("preflight", "service_miss_allocations"))
    misses = lookup(doc, ("preflight", "service_misses"))
    if allocations is None or not misses:
        return None
    return allocations / misses


# (json path or function of the document, human name, direction) --
# direction 'down' means lower is better, 'up' means higher is better.
METRICS = [
    (("eval", "reference_ns_per_eval"), "reference ns/eval", "down"),
    (("eval", "fast_ns_per_eval"), "fast ns/eval", "down"),
    (("batched", "batched_ns_per_eval"), "batched ns/eval", "down"),
    (("delta", "delta_ns_per_eval"), "delta ns/eval", "down"),
    (("general", "searches_per_sec"), "general searches/sec", "up"),
    (("search", "single_thread_per_sec"), "search evals/sec", "up"),
    (("exhaustive", "speedup"), "exhaustive speedup", "up"),
    (("alloc", "allocations_per_eval"), "allocations/eval", "down"),
    (("preflight", "service_hit_allocations"),
     "service hit allocations (10k hits)", "down"),
    (allocations_per_miss, "allocations/service miss", "down"),
]


def smoke_flag(doc):
    """The artifact's meta.smoke as JSON spells it (absent reads false)."""
    return json.dumps(bool(doc.get("meta", {}).get("smoke", False)))


def value(doc, path):
    return path(doc) if callable(path) else lookup(doc, path)


def classify(old, new, direction, tolerance):
    """Return (status, pct_change) for one metric row."""
    if old is None:
        return "new", None
    if old == 0:
        # Zero baselines (e.g. allocations/eval) must stay zero.
        return ("ok" if new == 0 else "regressed"), None
    change = (new - old) / abs(old)
    worse = change > tolerance if direction == "down" else change < -tolerance
    better = change < -tolerance if direction == "down" else change > tolerance
    if worse:
        return "regressed", change
    if better:
        return "improved", change
    return "ok", change


def fmt(value):
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.2f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="previous BENCH_partition.json")
    parser.add_argument("new", help="fresh BENCH_partition.json")
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 on any regression beyond tolerance (CI baseline host)")
    parser.add_argument(
        "--tolerance", type=float, default=10.0,
        help="relative tolerance in percent (default 10)")
    args = parser.parse_args()

    with open(args.old) as f:
        old_doc = json.load(f)
    with open(args.new) as f:
        new_doc = json.load(f)

    old_smoke = smoke_flag(old_doc)
    new_smoke = smoke_flag(new_doc)
    if old_smoke != new_smoke:
        print(f"refusing to compare a smoke run with a full one: "
              f"{args.old} has meta.smoke={old_smoke}, "
              f"{args.new} has meta.smoke={new_smoke}", file=sys.stderr)
        return 2

    tolerance = args.tolerance / 100.0
    rows = []
    regressions = []
    for path, name, direction in METRICS:
        old = value(old_doc, path)
        new = value(new_doc, path)
        if new is None:
            # The new artifact dropped a section; that is a bench change,
            # not a perf change -- note it but never gate on it.
            rows.append((name, fmt(old), "-", "-", "missing"))
            continue
        status, change = classify(old, new, direction, tolerance)
        pct = "-" if change is None else f"{change * 100.0:+.1f}%"
        rows.append((name, fmt(old), fmt(new), pct, status))
        if status == "regressed":
            regressions.append(name)

    widths = [max(len(r[i]) for r in rows + [("metric", "old", "new",
                                              "change", "status")])
              for i in range(5)]
    header = ("metric", "old", "new", "change", "status")
    for row in (header,) + tuple(rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))

    if regressions:
        print(f"\nregressed: {', '.join(regressions)} "
              f"(tolerance {args.tolerance:.0f}%)", file=sys.stderr)
        if args.gate:
            return 1
        print("warn-only (set NETPART_BENCH_GATE=1 via tier1.sh --bench "
              "to gate)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
