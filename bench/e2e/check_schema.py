#!/usr/bin/env python3
"""Check BENCHMARK.json and that a result directory emitted what it names.

  check_schema.py DIR [--require-traced] [--workload W ...]

Validates BENCHMARK.json's shape (the keys, name and unit spellings, bounds,
setup_s), then reads DIR/runs.jsonl (written by run.sh) and checks that for
every workload each end_to_end metric was emitted by an untraced run and,
when traced runs are present (or --require-traced is given), each per_layer
metric by a traced run -- every name present, with its unit, as a number,
and nothing extra.  Exits 1 with one line per problem.
"""
import argparse
import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark(bench):
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
        return errors
    if not 1 <= bench["run_seconds"] <= 60:
        errors.append("run_seconds outside 1..60")
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("need 2..8 workloads")
    seen = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            errors.append(f"workload {w.get('name')}: bad shape")
    for section, need in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in bench[section]:
            if set(m) != need:
                errors.append(f"{section} {m.get('name')}: keys {sorted(m)}")
                continue
            if not NAME.match(m["name"]) or m["name"] in seen:
                errors.append(f"{section} {m['name']}: bad or repeated name")
            seen.add(m["name"])
            if not UNIT.match(m["unit"]):
                errors.append(f"{section} {m['name']}: bad unit {m['unit']}")
            if m["better"] not in ("higher", "lower"):
                errors.append(f"{section} {m['name']}: better must be "
                              "higher or lower")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s should carry the largest bound")
    return errors


def check_runs(bench, runs, workloads, require_traced):
    errors = []
    for workload in workloads:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            mine = [r for r in runs
                    if r["workload"] == workload and r["trace"] == trace]
            if not mine:
                if not trace or require_traced:
                    errors.append(f"{workload}: no "
                                  f"{'traced' if trace else 'untraced'} run")
                continue
            want = {m["name"]: m["unit"] for m in bench[section]}
            for r in mine:
                got = r["metrics"]
                for name, unit in want.items():
                    if name not in got:
                        errors.append(f"{workload}: {name} missing")
                    elif got[name]["unit"] != unit:
                        errors.append(f"{workload}: {name} unit "
                                      f"{got[name]['unit']} != {unit}")
                    elif not (isinstance(got[name]["value"], (int, float))
                              and math.isfinite(got[name]["value"])):
                        errors.append(f"{workload}: {name} is not a number")
                for name in set(got) - set(want):
                    errors.append(f"{workload}: {name} not in {section}")
                if not r["correct"] or r["attempted"] < 1:
                    errors.append(f"{workload}: run not correct")
    return errors


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dir")
    p.add_argument("--require-traced", action="store_true")
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = check_benchmark(bench)
    runs_path = os.path.join(args.dir, "runs.jsonl")
    if not os.path.exists(runs_path):
        errors.append(f"{runs_path} does not exist")
    else:
        with open(runs_path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        errors += check_runs(bench, runs, workloads, args.require_traced)
    for e in errors:
        print(f"check_schema: {e}", file=sys.stderr)
    print(f"check_schema: {'FAIL' if errors else 'ok'} "
          f"({len(errors)} problems)", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
