#!/usr/bin/env python3
"""Compare a parent run directory with a change run directory.

  compare.py PARENT CHANGE

PARENT and CHANGE are run directories holding the runs.jsonl run.sh writes
(or such files themselves).  Untraced runs are
paired by (workload, seed, repeat) -- run the two commits alternately,
parent first on odd pairs and change first on even ones, so host drift
does not favour one side.  The metrics and their bounds come from the
repository's BENCHMARK.json.  One row per workload and end-to-end metric:

  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), and the medians differ by
              more than the parent's own IQR;
  regression  the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  either side's IQR, as a share of its median, exceeds the
              bound, unless every change run beats every parent run;
  same        none of the above.

success_rate and tc_ratio are exact: every correct run reads success_rate
1, and tc_ratio is a function of the workload alone (offline_plan measures
it on a problem set that does not depend on the seed), so two runs of the
same program read the same.  For them any pair the change reads worse is a
regression, whatever the bound, and a row is never unresolved.

Exits 1 when any row is a regression.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

MIN_PAIRS = 10
WIN_SHARE = 0.9
EXACT = ("success_rate", "tc_ratio")


def load_runs(path):
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if not r.get("trace"):
                runs[(r["workload"], r["seed"], r.get("rep", 0))] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, higher_better, bound, exact=False):
    """The row for one metric: parent/change values are paired in order."""
    better = (lambda c, p: c > p) if higher_better else (lambda c, p: c < p)
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    losses = sum(1 for p, c in zip(parent, change) if better(p, c))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1p, q3p = quartiles(parent)
    q1c, q3c = quartiles(change)
    scale_p = abs(med_p) if med_p else 1.0
    scale_c = abs(med_c) if med_c else 1.0
    worse_share = ((med_p - med_c) if higher_better else (med_c - med_p)) / scale_p
    spread = max((q3p - q1p) / scale_p, (q3c - q1c) / scale_c)
    all_better = all(better(c, p) for c in change for p in parent)
    if exact and losses:
        result = "regression"
    elif (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and better(med_c, med_p) and abs(med_c - med_p) > q3p - q1p):
        result = "gain"
    elif worse_share > bound:
        result = "regression"
    elif spread > bound and not all_better and not exact:
        result = "unresolved"
    else:
        result = "same"
    return {"pairs": pairs, "wins": wins, "losses": losses,
            "parent": [q1p, med_p, q3p], "change": [q1c, med_c, q3c],
            "change_pct": 100.0 * (med_c - med_p) / scale_p,
            "spread": spread, "verdict": result}


def compare(parent_runs, change_runs, bench):
    rows = []
    for w in bench["workloads"]:
        keys = sorted(k for k in parent_runs
                      if k[0] == w["name"] and k in change_runs)
        if not keys:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            parent = [parent_runs[k]["metrics"][name]["value"] for k in keys]
            change = [change_runs[k]["metrics"][name]["value"] for k in keys]
            row = verdict(parent, change, m["better"] == "higher", m["bound"],
                          name in EXACT)
            row.update(workload=w["name"], metric=name, unit=m["unit"],
                       bound=m["bound"])
            rows.append(row)
    return rows


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows = compare(load_runs(args.parent), load_runs(args.change), bench)

    def fmt(q):
        return "/".join(f"{x:.4g}" for x in q)

    print(f"{'workload':13s} {'metric':15s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'chg%':>7s} {'wins':>6s} verdict")
    for r in rows:
        print(f"{r['workload']:13s} {r['metric']:15s} "
              f"{fmt(r['parent']):>30s} {fmt(r['change']):>30s} "
              f"{r['change_pct']:+7.2f} {r['wins']:>3d}/{r['pairs']:<2d} "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
