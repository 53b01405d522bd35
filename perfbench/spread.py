"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
computes it.

Usage: ``python3 perfbench/spread.py [--runs 10] [--first-seed 1]
[--workloads a,b] [--out FILE] [--compare EARLIER.json]``

Runs the benchmark command once per seed (``first-seed`` onward) on
each workload with ``--trace 0`` and ``run_seconds`` from
BENCHMARK.json, then reports for every end-to-end metric the median
and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound.  ``--compare`` checks a second
set against an earlier one: every simulated metric must repeat exactly
per seed, and no metric's median may be worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


#: Metrics measured in simulated time: identical for identical seeds.
SIMULATED = ("brokered_per_s", "brokered_frac", "response_p50_s",
             "response_p99_s", "accuracy_pct")


def compare(report: dict, earlier_path: str, bench: dict) -> bool:
    with open(earlier_path) as fh:
        earlier = json.load(fh)
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload, now in report.items():
        before = earlier[workload]
        seeds_then = {r["seed"]: r for r in before["runs"]}
        for run in now["runs"]:
            then = seeds_then.get(run["seed"])
            if then is None:
                continue
            for m in SIMULATED:
                a = then["result"]["metrics"][m]["value"]
                b = run["result"]["metrics"][m]["value"]
                if a != b:
                    ok = False
                    print(f"{workload} seed {run['seed']} {m}: {a} != {b}")
            if then["record"]["detail"]["digests"] != \
                    run["record"]["detail"]["digests"]:
                ok = False
                print(f"{workload} seed {run['seed']}: digests differ")
        for m, row in now["metrics"].items():
            first = before["metrics"][m]["median"]
            change = (row["median"] - first) / first
            worse = change if lower[m] else -change
            verdict = "ok" if worse <= bounds[m] else "WORSE"
            ok &= verdict == "ok"
            print(f"{workload:15s} {m:15s} first={first:12.5f} "
                  f"second={row['median']:12.5f} change={change:+.4f} "
                  f"{verdict}")
    return ok


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {}
    ok = True
    for workload in names:
        values: dict = {m: [] for m in bounds}
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed",
                                    str(seed), "--seconds",
                                    str(bench["run_seconds"]), "--trace",
                                    "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            results.append({"seed": seed, "record": json.loads(lines[-2]),
                            "result": result})
            ok &= result["correct"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        rows = {}
        for m, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            rows[m] = {"median": q2, "spread": spread,
                       "third_of_bound": bounds[m] / 3,
                       "steady": spread < bounds[m] / 3,
                       "values": vals}
            print(f"{workload:15s} {m:15s} median={q2:12.5f} "
                  f"spread={spread:.4f} bound/3={bounds[m] / 3:.4f} "
                  f"{'ok' if rows[m]['steady'] else 'WIDE'}", flush=True)
        report[workload] = {"metrics": rows, "runs": results}
    if args.compare:
        ok &= compare(report, args.compare, bench)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
