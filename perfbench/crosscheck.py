"""Cross-check the traced ledger's layer shares against cProfile.

Usage: ``python3 perfbench/crosscheck.py [WORKLOAD] [SEED] [OUT.json]``

Runs the workload once under cProfile (spans on, no ledger wrappers)
in this process, and once traced by the ledger in a worker process,
both on the same seed.  cProfile self time is grouped by the module
that defines each function; time in functions outside any layer
(builtins, numpy, the stdlib, the counter and event-trace helpers,
which the ledger does not wrap either) is handed to their callers'
layers in proportion to the time each caller spent in them.  Both
methods are then reduced to the same comparison groups and their
shares of the run compared.  A group whose shares differ by more than
``TOLERANCE_PTS`` percentage points is reported as a defect of the
benchmark ("two methods disagree"), not as a finding about the
program.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.runner import build_experiment  # noqa: E402
from ledger import SELF_KEYS, layer_of_module  # noqa: E402
from workloads import WORKLOADS, subseed  # noqa: E402

#: Largest allowed disagreement between the two methods, per group, in
#: percentage points of the run.
TOLERANCE_PTS = 5.0

#: Ledger layer -> comparison group.  The ledger charges trace-row
#: appends (``repro.workloads.trace``) to the client that makes them,
#: and the sync frame ``merge_remote_records`` runs engine code, so
#: those pairs are compared together.
GROUPS = {
    "kernel": "kernel",
    "client": "client+workload",
    "workload": "client+workload",
    "net": "net",
    "dp": "dp",
    "engine": "engine+state+sync",
    "state": "engine+state+sync",
    "sync": "engine+state+sync",
    "selector": "selector",
    "site": "site",
    "obs": "obs",
    "other": "other",
}

#: Modules whose functions the ledger leaves inside their callers.
_INLINE = ("repro.obs.counters", "repro.obs.trace")

#: The site-drain share that the sampling profiler
#: (``repro.obs.profiler.SubsystemProfiler``) reported on its smoke cell.
SITE_DRAIN_CLAIM_PCT = 68.0


def _module(filename: str):
    src = os.path.join(ROOT, "src") + os.sep
    if not filename.startswith(src) or not filename.endswith(".py"):
        return None
    module = filename[len(src):-3].replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[:-9]
    if module.startswith(_INLINE):
        return None
    return module


def profile_shares(workload: str, seed: int) -> dict:
    cfg = WORKLOADS[workload].config(seed).with_(spans_enabled=True)
    built = build_experiment(cfg)
    gc.collect()
    prof = cProfile.Profile()
    prof.enable()
    built.sim.run(until=cfg.duration_s)
    prof.disable()
    prof.create_stats()
    stats = prof.stats

    memo: dict = {}

    def fractions(func, seen):
        """Layer fractions of an out-of-layer function, by caller time."""
        if func in memo:
            return memo[func]
        if func in seen:
            return {"other": 1.0}
        seen = seen | {func}
        callers = stats[func][4] if func in stats else {}
        total = sum(v[3] for v in callers.values())
        out: dict = defaultdict(float)
        if not total:
            out["other"] = 1.0
        for caller, v in callers.items():
            weight = v[3] / total if total else 0.0
            module = _module(caller[0])
            if module is not None:
                out[layer_of_module(module)] += weight
            else:
                for layer, x in fractions(caller, seen).items():
                    out[layer] += weight * x
        memo[func] = out
        return out

    by_layer: dict = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        module = _module(func[0])
        if module is not None:
            by_layer[layer_of_module(module)] += tt
            continue
        # Split this function's own time over its callers.
        for caller, v in callers.items():
            cmod = _module(caller[0])
            if cmod is not None:
                by_layer[layer_of_module(cmod)] += v[2]
            else:
                for layer, x in fractions(caller, frozenset()).items():
                    by_layer[layer] += v[2] * x
        if not callers:
            by_layer["other"] += tt
    return dict(by_layer)


def ledger_shares(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), "traced", "1"],
        check=True, capture_output=True, text=True, cwd=ROOT)
    ledger = json.loads(out.stdout.strip().splitlines()[-1])["ledger"]
    return {layer: ledger[key] for layer, key in SELF_KEYS.items()}


def _grouped(by_layer: dict) -> dict:
    total = sum(by_layer.values())
    groups: dict = defaultdict(float)
    for layer, secs in by_layer.items():
        groups[GROUPS.get(layer, "other")] += 100.0 * secs / total
    return dict(groups)


def compare(workload: str = "paper-1x", seed: int = 1) -> dict:
    run_seed = subseed(seed, 0)
    prof = _grouped(profile_shares(workload, run_seed))
    ledg = _grouped(ledger_shares(workload, run_seed))
    rows = {}
    defects = []
    for group in sorted(set(prof) | set(ledg)):
        a, b = ledg.get(group, 0.0), prof.get(group, 0.0)
        rows[group] = {"ledger_pct": round(a, 2), "cprofile_pct": round(b, 2),
                       "diff_pts": round(a - b, 2)}
        if abs(a - b) > TOLERANCE_PTS:
            defects.append(f"{group}: ledger {a:.1f}% vs cProfile {b:.1f}%")
    site = max(ledg.get("site", 0.0), prof.get("site", 0.0))
    return {
        "workload": workload, "seed": run_seed,
        "tolerance_pts": TOLERANCE_PTS,
        "shares": rows,
        "defects": defects,
        "agree": not defects,
        "site_drain_68pct_reproduced":
            abs(site - SITE_DRAIN_CLAIM_PCT) <= TOLERANCE_PTS,
        "site_share_max_pct": round(site, 2),
    }


def main(argv: list[str]) -> int:
    workload = argv[0] if argv else "paper-1x"
    seed = int(argv[1]) if len(argv) > 1 else 1
    report = compare(workload, seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if len(argv) > 2:
        with open(argv[2], "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["agree"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
