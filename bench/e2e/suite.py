#!/usr/bin/env python3
"""Run the end-to-end benchmark suite: each workload in its own process.

Called by run.sh after the build (run.sh passes --bin).  Prints one
`workload metric value unit` line per metric, appends every run to
DIR/runs.jsonl, and with --repeat K > 1 writes DIR/summary.json: per
workload and metric the median, quartiles, IQR and min-max spread as
shares of the median.  Exits non-zero if any run fails or reports a wrong
answer.

  run.sh [--seed N] [--workload W] [--traced] [--smoke] [--repeat K]
         [--out DIR] [--seconds S]

Repeat k runs with seed N + k, so a repeat set varies the inputs as well
as the host's state.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(args, workload, seed, trace):
    cmd = [args.bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out", args.out]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    # A wrong answer exits 1 after printing its result line; keep that
    # result so the run is logged and reported as incorrect.
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 and result.get("correct"):
        return None
    return result


def summarize(runs):
    """{workload: {metric: stats}} over the untraced runs."""
    values = {}
    for r in runs:
        if r["trace"]:
            continue
        for name, m in r["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
    out = {}
    for workload, metrics in values.items():
        for name, d in metrics.items():
            v = d["values"]
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            scale = abs(med) if med else 1.0
            out.setdefault(workload, {})[name] = {
                "unit": d["unit"], "runs": len(v), "median": med,
                "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / scale,
                "min": min(v), "max": max(v),
                "range_share": (max(v) - min(v)) / scale}
    return out


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--bin", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--traced", action="store_true",
                   help="also run each workload's traced per-layer run")
    p.add_argument("--smoke", action="store_true",
                   help="1-s phases, untraced and traced, then the schema "
                        "check")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out", help="result directory; runs.jsonl there is "
                   "appended to, so alternating runs of two commits can "
                   "collect in one directory each (default "
                   "build-e2e/results, or build-e2e/smoke, emptied first, "
                   "with --smoke)")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    if args.out is None:
        args.out = os.path.join(ROOT, "build-e2e",
                                "smoke" if args.smoke else "results")
    os.makedirs(args.out, exist_ok=True)
    if args.smoke:
        open(os.path.join(args.out, "runs.jsonl"), "w").close()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    traced = args.traced or args.smoke

    ok = True
    runs = []
    started = time.monotonic()
    with open(os.path.join(args.out, "runs.jsonl"), "a") as log:
        for rep in range(args.repeat):
            for workload in workloads:
                for trace in ([False, True] if traced else [False]):
                    seed = args.seed + rep
                    result = run_one(args, workload, seed, trace)
                    if result is None:
                        print(f"{workload} run failed (seed {seed})",
                              file=sys.stderr)
                        ok = False
                        continue
                    result.update(workload=workload, seed=seed, rep=rep,
                                  trace=trace)
                    log.write(json.dumps(result) + "\n")
                    log.flush()
                    runs.append(result)
                    ok = ok and result["correct"]
                    for name, m in result["metrics"].items():
                        print(f"{workload} {name} {m['value']:.6g} "
                              f"{m['unit']}")
                    if not result["correct"]:
                        print(f"{workload} INCORRECT: {result['failed']} of "
                              f"{result['attempted']} failed", file=sys.stderr)
    print(f"# {len(runs)} runs in {time.monotonic() - started:.1f} s; "
          f"results in {args.out}", file=sys.stderr)

    if args.repeat > 1:
        summary = summarize(runs)
        with open(os.path.join(args.out, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                flag = ("  SPREAD > BOUND"
                        if s["iqr_share"] > bounds.get(name, 1) else "")
                print(f"# {workload:12s} {name:16s} median {s['median']:.6g} "
                      f"IQR {100 * s['iqr_share']:.2f}% range "
                      f"{100 * s['range_share']:.2f}%{flag}", file=sys.stderr)

    if args.smoke:
        check = subprocess.run(
            [sys.executable, os.path.join(HERE, "check_schema.py"), args.out,
             "--require-traced"] + [a for w in workloads
                                    for a in ("--workload", w)])
        ok = ok and check.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
