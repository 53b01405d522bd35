"""The repository's benchmark: one workload, end to end or traced.

Usage::

    python3 perfbench/run.py --workload paper-1x --seed 1 --seconds 30 \
        --trace 0

Every simulation run happens in a fresh single-threaded worker process
(``worker.py``), one run per process.  ``--trace 0`` runs whole cycles
of the workload's pooled seeds (``Workload.seeds`` runs, each on a
seed derived from ``--seed``), as many as fit ``--seconds`` at the
workload's nominal run time and at least one; it prints every
end-to-end metric.  ``--trace 1`` runs untraced/traced pairs of the
first pooled seed the same way and prints every per-layer metric.

The second-to-last line of stdout is the full record (stamps, sample
counts, ratio bases, check results); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  ``attempted``
counts simulation runs and ``failed`` the runs that crashed or failed
an output check; queries that fall back inside the model are a
simulated outcome and show in ``brokered_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Builds per worker; the first build of a process is cold (imports,
#: first-touch allocations) and is reported apart from ``setup_s``.
SETUPS = 4
#: A single worker must finish well inside the benchmark's time limit.
WORKER_TIMEOUT_S = 150

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
             "brokered_per_s": "1/s", "brokered_frac": "fraction",
             "response_p50_s": "s", "response_p99_s": "s",
             "accuracy_pct": "%"}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_frac", ".share")):
        return "fraction"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".kb"):
        return "KB"
    if name.endswith("_per_query"):
        return "1/query"
    if name.endswith("_per_wakeup"):
        return "1/wakeup"
    return "count"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def stamps(seed: int, horizon_s: float) -> dict:
    import numpy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "horizon_s": horizon_s}


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    # One thread per worker, and one string-hash seed for all of them.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), "traced" if traced else "plain", str(SETUPS)],
        capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker exited {out.returncode}: "
                           f"{out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_ref(run: dict) -> list[float]:
    """A run's set-up times in reference-machine seconds, by the speed
    samples taken just before each build."""
    from calibrate import CAL_REF_S
    speed = CAL_REF_S * len(run["cal_setup_s"]) / sum(run["cal_setup_s"])
    return [s * speed for s in run["setup_s"]]


def run_ref(run: dict) -> float:
    """A run's simulation time in reference-machine seconds: each slice
    scaled by the mean of the speed samples on either side of it."""
    from calibrate import CAL_REF_S
    cal = run["cal_run_s"]
    return sum(t * 2.0 * CAL_REF_S / (cal[i] + cal[i + 1])
               for i, t in enumerate(run["slices_s"]))


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    """Pooled simulated metrics (one run per pooled seed) and host
    metrics (medians over every run)."""
    from metrics import nearest_rank
    first = {}
    for r in runs:
        first.setdefault(r["seed"], r)
    pooled = list(first.values())
    issued = sum(r["counts"]["issued"] for r in pooled)
    brokered = sum(r["counts"]["brokered"] for r in pooled)
    horizon = sum(r["horizon_s"] for r in pooled)
    responses = [x for r in pooled for x in r["response_s"]]
    p50 = nearest_rank(responses, 50)
    p99 = nearest_rank(responses, 99)
    acc_n = sum(r["accuracy_n"] for r in pooled)
    warm_setups = [s for r in runs for s in setup_ref(r)[1:]]
    values = {
        "setup_s": median(warm_setups),
        "run_s": median([run_ref(r) for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "brokered_per_s": brokered / horizon,
        "brokered_frac": brokered / issued,
        "response_p50_s": p50[0] if p50 else None,
        "response_p99_s": p99[0] if p99 else None,
        "accuracy_pct": (100.0 * sum(r["accuracy_sum"] for r in pooled)
                         / acc_n if acc_n else None),
    }
    detail = {
        "runs": len(runs), "pooled_seeds": sorted(first),
        "setup_samples": len(warm_setups),
        "setup_cold_s": median([setup_ref(r)[0] for r in runs]),
        "setup_wall_s": median([s for r in runs for s in r["setup_s"][1:]]),
        "run_wall_s": median([r["run_s"] for r in runs]),
        "run_wall_s_all": [r["run_s"] for r in runs],
        "run_ref_s_all": [run_ref(r) for r in runs],
        "queries_issued": issued, "queries_brokered": brokered,
        "queries_fallback": sum(r["counts"]["fallback"] for r in pooled),
        "queries_in_flight_end": sum(r["counts"]["in_flight"]
                                     for r in pooled),
        "queries_abandoned": sum(r["abandoned"] for r in pooled),
        "response_samples": len(responses),
        "response_censored": sum(r["response_censored"] for r in pooled),
        "accuracy_jobs": acc_n,
        "events": sum(r["events"] for r in pooled),
        "digests": {str(s): r["digest"] for s, r in first.items()},
    }
    return values, detail


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Median host metrics over traced runs; sim metrics from the first."""
    traced = [t["ledger"] for _, t in pairs]
    host = {k for k in traced[0] if k.endswith("_s") and (
        k.endswith("self_s") or k.startswith(("setup.", "trace.")))}
    host |= {"engine.us_per_decision", "selector.us_per_call",
             "engine_selector.share"}
    values = dict(traced[0])
    for key in host:
        vals = [t[key] for t in traced if t.get(key) is not None]
        values[key] = median(vals) if vals else None
    plain_run = median([run_ref(p) for p, _ in pairs])
    traced_run = median([run_ref(t) for _, t in pairs])
    values["trace.overhead_pct"] = 100.0 * (traced_run / plain_run - 1.0)
    detail = {"pairs": len(pairs), "plain_run_s": plain_run,
              "traced_run_s": traced_run,
              "traced_run_wall_s_all": [t["run_s"] for _, t in pairs]}
    return values, detail


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _fail(f"no program source under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import DEFAULT_SEED, WORKLOADS, subseed
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    attempted = failed = 0
    errors: list[str] = []

    def attempt(seed: int, traced: bool):
        nonlocal attempted, failed
        attempted += 1
        try:
            rec = run_worker(args.workload, seed, traced)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            failed += 1
            errors.append(f"seed {seed}: {exc}")
            return None
        if rec["errors"]:
            failed += 1
            errors.extend(f"seed {seed}: {e}" for e in rec["errors"])
        return rec

    # The number of runs follows from ``--seconds`` and the workload's
    # nominal run time alone, never from the clock, so every invocation
    # with the same arguments runs the same seeds.
    if args.trace:
        # An untraced and a traced run of the first pooled seed per pair;
        # a traced run takes about twice an untraced one.
        seeds = [subseed(args.seed, 0)] * max(
            1, round(args.seconds / (3 * wl.run_s)))
    else:
        cycles = max(1, round(args.seconds / (wl.seeds * wl.run_s)))
        seeds = [subseed(args.seed, i) for i in range(wl.seeds)] * cycles
    digests: dict[int, set] = {}
    runs: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    for seed in seeds:
        plain = attempt(seed, traced=False)
        traced = attempt(seed, traced=True) if args.trace else None
        for rec in (plain, traced):
            if rec is not None:
                digests.setdefault(seed, set()).add(rec["digest"])
        if plain is not None:
            runs.append(plain)
            if traced is not None:
                pairs.append((plain, traced))
        if failed:
            break

    for seed, found in digests.items():
        if len(found) > 1:
            errors.append(f"seed {seed}: runs disagree on the results "
                          f"digest {sorted(found)}")
    if args.seed == DEFAULT_SEED:
        want = reference.get(args.workload, {})
        for seed, found in digests.items():
            ref = want.get(str(seed))
            if found != {ref}:
                errors.append(f"seed {seed}: digest {sorted(found)} != "
                              f"reference {ref}")

    metrics: dict = {}
    record: dict = {"workload": args.workload, "why": wl.why,
                    "stamps": stamps(args.seed, wl.horizon_s),
                    "errors": errors}
    if args.trace:
        values, record["detail"] = per_layer(pairs) if pairs else ({}, {})
        unit = layer_unit
    else:
        values, record["detail"] = end_to_end(runs) if runs else ({}, {})
        unit = E2E_UNITS.__getitem__
    for name, value in values.items():
        if value is None:
            errors.append(f"metric {name} has too few samples")
            continue
        metrics[name] = {"value": value, "unit": unit(name)}
    correct = not errors and failed == 0 and bool(metrics)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
