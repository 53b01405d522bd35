#!/usr/bin/env python
"""Scale sweep: does the simulator survive a 10x-Grid3/OSG grid?

Sweeps grid multiplier k in {1, 3, 10} x decision-point count, running
every cell once in the default configuration, and records:

* ``events_per_s``  — kernel events executed per wall second;
* ``heap_peak``     — peak ``len(sim._heap)`` (boundedness evidence);
* ``rss_peak_mb``   — peak resident set size of the (isolated) run;
* ``sync_kb``       — total sync payload shipped, in KB.

Each cell runs in a fresh subprocess so peak-RSS numbers are per-cell,
not a process-wide high-water mark.  ``cpu_count`` is recorded with
the report: events/s are machine-dependent, so compare rows only
within one report.

The full sweep also measures the *shard axis*: the space-parallel
sharded runtime (``repro.sim.sharded``) on the headline (k=10, 10 DP)
cell at 1/2/4 shards plus a k=100 row, recording events/s and the run
digest per shard count.  The shard gate requires every shard count to
produce the same digest (grouping independence) and the best 4-shard
run on the k=10 cell to be no slower than the serial run of the same
cell (``speedup_vs_serial``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick   # CI subset
    PYTHONPATH=src python benchmarks/bench_scale.py --quick \
        --shards-only                                         # CI shard gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# Allow running from a source checkout without installing.
_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT / "src"), str(_ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

#: Simulated seconds per cell.  Long enough for several sync rounds
#: and for dead heap entries and record backlogs to accumulate, short enough that a full
#: sweep stays benchable.
CELL_DURATION_S = 900.0
#: The full sweep: grid multiplier x decision points.
FULL_CELLS = tuple((k, dps) for k in (1, 3, 10) for dps in (3, 10))
#: CI subset — same per-cell parameters, fewer cells.
QUICK_CELLS = ((1, 3), (10, 3))
#: Sharded axis: shard counts measured on the headline (k=10, 10 DP)
#: cell, plus a 4-shard worker-mode row for the parallel path.
SHARD_COUNTS = (1, 2, 4)
#: Acceptance floor for the sharded runtime on the k=10 cell: events/s
#: at 4 shards vs the serial run of the same cell.  The structural
#: gain — neighborhood-local views, epoch-batched sync, smaller heaps —
#: is core-count independent, so CI can gate on it from a 1-core
#: runner.
SHARD4_SPEEDUP_FLOOR = 1.0


def _cell_env() -> dict:
    """Subprocess environment for measured cells, pinned.

    Committed BENCH numbers must not drift with the invoking shell:
    ``PYTHONHASHSEED`` is pinned (hash-dependent set/dict iteration
    order in *any* future code path would otherwise vary per process),
    and the repo's ``REPRO_*`` toggles (bench durations, obs/trace
    switches) are stripped so a cell measures exactly what the sweep
    parameters say.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cell(multiplier: int, dps: int, duration_s: float) -> dict:
    """One measured run; returns the metrics dict (JSON-safe)."""
    import resource

    from repro.experiments import run_experiment
    from repro.experiments.configs import scale_config

    config = scale_config(
        multiplier=multiplier, decision_points=dps, duration_s=duration_s,
        name=f"scale-{multiplier}x-{dps}dp")
    t0 = time.perf_counter()
    result = run_experiment(config)
    wall_s = time.perf_counter() - t0
    sim = result.sim
    sync_kb = sum(dp.sync.kb_sent
                  for dp in result.deployment.decision_points.values())
    sync_records = sum(dp.sync.records_sent
                       for dp in result.deployment.decision_points.values())
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "multiplier": multiplier,
        "dps": dps,
        "duration_s": duration_s,
        "wall_s": round(wall_s, 3),
        "events": sim.events_executed,
        "events_per_s": round(sim.events_executed / wall_s, 1),
        "heap_peak": sim.heap_peak,
        "compactions": sim.compactions,
        "sync_kb": round(sync_kb, 1),
        "sync_records": sync_records,
        "requests": result.n_jobs,
        "rss_peak_mb": round(ru.ru_maxrss / 1024.0, 1),  # Linux: KB
    }


def _run_cell_isolated(params: dict, entry: str = "--cell") -> dict:
    """Run one cell in a fresh interpreter (honest per-cell peak RSS)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         entry, json.dumps(params)],
        capture_output=True, text=True, env=_cell_env())
    if proc.returncode != 0:
        # Isolation failed (constrained environments): fall back inline.
        sys.stderr.write(proc.stderr)
        runner = run_shard_cell if entry == "--shard-cell" else run_cell
        return runner(**params)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_shard_cell(multiplier: int, dps: int, duration_s: float,
                   n_shards: int, mode: str = "lockstep") -> dict:
    """One sharded run of the k-scaled grid; returns metrics + digest."""
    import resource

    from repro.experiments.configs import scale_config
    from repro.sim.sharded import run_sharded

    config = scale_config(
        multiplier=multiplier, decision_points=dps, duration_s=duration_s,
        name=f"scale-{multiplier}x-{dps}dp-sharded")
    result = run_sharded(config, n_shards=n_shards, mode=mode)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "multiplier": multiplier,
        "dps": dps,
        "duration_s": duration_s,
        "n_shards": n_shards,
        "mode": mode,
        "wall_s": round(result.wall_s, 3),
        "events": result.total_events,
        "events_per_s": round(result.events_per_s, 1),
        "heap_peak": result.heap_peak,
        "requests": result.n_jobs,
        "digest": result.digest,
        "rss_peak_mb": round(ru.ru_maxrss / 1024.0, 1),  # Linux: KB
    }


def run_shard_sweep(shard_rows, duration_s: float, serial_rows=(),
                    isolate: bool = True) -> list[dict]:
    """The shard-count axis: one row per (k, dps) with all shard runs.

    ``serial_rows`` supplies the serial cells already measured by
    :func:`run_sweep`; a (k, dps) row with a serial cell gets its
    ``speedup_vs_serial``.  Rows without one (the k=100 cell, whose
    serial run needs ~10 GB RSS) carry digests and rates only.
    """
    by_cell = {(c["multiplier"], c["dps"]): c for c in serial_rows}
    rows = []
    for multiplier, dps, shard_specs in shard_rows:
        runs = []
        for n_shards, mode in shard_specs:
            params = dict(multiplier=multiplier, dps=dps,
                          duration_s=duration_s, n_shards=n_shards,
                          mode=mode)
            r = (_run_cell_isolated(params, entry="--shard-cell")
                 if isolate else run_shard_cell(**params))
            runs.append(r)
            print(f"k={multiplier:>3} dps={dps:>2} shards={n_shards} "
                  f"[{mode:>8}]: {r['events_per_s']:>9,.0f} ev/s   "
                  f"events {r['events']:,}   digest {r['digest']}")
        row: dict = {"multiplier": multiplier, "dps": dps, "runs": runs}
        row["digest_consistent"] = len({r["digest"] for r in runs}) == 1
        serial = by_cell.get((multiplier, dps))
        best4 = max((r["events_per_s"] for r in runs
                     if r["n_shards"] == max(s for s, _ in shard_specs)),
                    default=None)
        if serial is not None and best4 is not None:
            row["speedup_vs_serial"] = round(
                best4 / serial["events_per_s"], 2)
        rows.append(row)
        msg = [f"k={multiplier:>3} dps={dps:>2} shard row:",
               f"digests {'consistent' if row['digest_consistent'] else 'DIVERGED'}"]
        if "speedup_vs_serial" in row:
            msg.append(f"vs serial {row['speedup_vs_serial']:.2f}x")
        print("  " + "   ".join(msg))
    return rows


def run_sweep(cells, duration_s: float, isolate: bool = True) -> list[dict]:
    rows = []
    for multiplier, dps in cells:
        params = dict(multiplier=multiplier, dps=dps, duration_s=duration_s)
        cell = (_run_cell_isolated(params) if isolate
                else run_cell(**params))
        rows.append(cell)
        print(f"k={multiplier:>2} dps={dps:>2}: "
              f"{cell['events_per_s']:>9,.0f} ev/s   "
              f"heap {cell['heap_peak']}   "
              f"sync {cell['sync_kb']:,.1f} KB   "
              f"rss {cell['rss_peak_mb']:.0f} MB")
    return rows


def measure_heap_bound(n_rpcs: int = 10_000) -> dict:
    """Kernel-level boundedness evidence: heap growth per completed RPC.

    The experiment cells cannot isolate this (under saturation most
    timeouts *fire* instead of being cancelled), so measure it
    directly: a healthy client completing ``n_rpcs`` RPCs whose long
    timeouts would all still be armed at the end of the run if nothing
    cancelled them.  The heap must stay O(live), not O(completed): its
    peak below a tenth of ``n_rpcs``.
    """
    from repro.net import ConstantLatency, Endpoint, Network
    from repro.sim import Simulator

    sim = Simulator()
    net = Network(sim, ConstantLatency(0.01))
    Endpoint(net, "client")
    server = Endpoint(net, "server")
    server.register_handler("echo", lambda payload, src: payload)

    def driver():
        for _ in range(n_rpcs):
            yield net.rpc("client", "server", "echo", {}, timeout=600.0)

    sim.process(driver())
    sim.run()
    return {
        "completed_rpcs": n_rpcs,
        "heap_peak": sim.heap_peak,
        "heap_end": len(sim._heap),
        "compactions": sim.compactions,
        "bounded": sim.heap_peak * 10 < n_rpcs,
    }


def shard_gate(shard_rows: list[dict]) -> tuple[bool, list[str]]:
    """The sharded acceptance gate: digest equality + speedup floor."""
    problems = []
    for row in shard_rows:
        key = f"k={row['multiplier']} dps={row['dps']}"
        if not row["digest_consistent"]:
            problems.append(f"{key}: shard-count digests diverged")
        ratio = row.get("speedup_vs_serial")
        if ratio is not None and ratio < SHARD4_SPEEDUP_FLOOR:
            problems.append(
                f"{key}: sharded {ratio:.2f}x vs the serial run, "
                f"below the {SHARD4_SPEEDUP_FLOOR:.1f}x floor")
    return (not problems), problems


def build_report(rows: list[dict], quick: bool,
                 shard_rows: list[dict] | None = None) -> dict:
    heap_bound = measure_heap_bound()
    report = {
        "bench": "scale",
        "quick": quick,
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cell_duration_s": CELL_DURATION_S,
        "cells": rows,
        "heap_bound": heap_bound,
        "pass_heap_bound": heap_bound["bounded"],
    }
    if shard_rows is not None:
        shard_ok, shard_problems = shard_gate(shard_rows)
        report["shard_cells"] = shard_rows
        report["shard4_speedup_floor"] = SHARD4_SPEEDUP_FLOOR
        report["pass_shard_gate"] = shard_ok
        report["shard_gate_problems"] = shard_problems
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scale sweep: k x Grid3/OSG grids and the shard axis")
    parser.add_argument("--quick", action="store_true",
                        help="CI subset of cells (same per-cell sizes)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="report path (default: BENCH_scale.json in "
                             "the repo root)")
    parser.add_argument("--no-isolate", action="store_true",
                        help="run cells in-process (faster, but peak RSS "
                             "becomes a process-wide high-water mark)")
    parser.add_argument("--shards-only", action="store_true",
                        help="run only the shard axis (CI shard job): "
                             "serial k=10 reference + sharded runs, "
                             "gating on digest equality and the shard "
                             "speedup floor")
    parser.add_argument("--cell", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--shard-cell", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.cell:  # subprocess entry: one cell, JSON on stdout
        print(json.dumps(run_cell(**json.loads(args.cell))))
        return 0
    if args.shard_cell:
        print(json.dumps(run_shard_cell(**json.loads(args.shard_cell))))
        return 0

    isolate = not args.no_isolate

    if args.shards_only:
        serial_rows = run_sweep([(10, 10)], CELL_DURATION_S, isolate=isolate)
        specs = ([(10, 10, [(1, "lockstep"), (4, "lockstep")])]
                 if args.quick else
                 [(10, 10, [(n, "lockstep") for n in SHARD_COUNTS]
                   + [(4, "workers")])])
        shard_rows = run_shard_sweep(specs, CELL_DURATION_S,
                                     serial_rows=serial_rows,
                                     isolate=isolate)
        shard_ok, problems = shard_gate(shard_rows)
        for problem in problems:
            print(f"  SHARD GATE: {problem}")
        print(f"shard gate (digest equality + >= "
              f"{SHARD4_SPEEDUP_FLOOR:.1f}x vs the serial run) -> "
              f"{'PASS' if shard_ok else 'FAIL'}")
        return 0 if shard_ok else 1

    cells = QUICK_CELLS if args.quick else FULL_CELLS
    rows = run_sweep(cells, CELL_DURATION_S, isolate=isolate)

    shard_rows = None
    if not args.quick:
        shard_specs = [
            (10, 10, [(n, "lockstep") for n in SHARD_COUNTS]
             + [(4, "workers")]),
            # The k=100 row: a grid one hundred times Grid3/OSG.  No
            # serial reference: that run needs ~10 GB RSS, which is
            # what the sharded runtime exists to avoid.
            (100, 10, [(4, "lockstep")]),
        ]
        shard_rows = run_shard_sweep(shard_specs, CELL_DURATION_S,
                                     serial_rows=rows, isolate=isolate)
    report = build_report(rows, quick=args.quick, shard_rows=shard_rows)

    out = Path(args.out) if args.out else _ROOT / "BENCH_scale.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    bound = report["heap_bound"]
    passed = report["pass_heap_bound"]
    print(f"heap bound ({bound['completed_rpcs']} RPCs, peak "
          f"{bound['heap_peak']}): {'PASS' if passed else 'FAIL'}")
    if shard_rows is not None:
        shard_verdict = "PASS" if report["pass_shard_gate"] else "FAIL"
        print(f"shard gate: {shard_verdict}")
        passed = passed and report["pass_shard_gate"]
    print(f"wrote {out}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
