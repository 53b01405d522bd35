"""One simulation run of one workload, in its own process.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED {plain,traced} SETUPS``

Builds the workload ``SETUPS`` times (each build timed; the last one is
run), simulates the workload's horizon once, checks the outputs and
prints one JSON record on stdout.  Machine-speed samples
(``calibrate.py``) are taken outside every timed region.  ``traced``
installs the ledger's timing wrappers and turns on the program's
sim-time spans.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.experiments.runner import (build_experiment,  # noqa: E402
                                      finalize_experiment)
from calibrate import calibrate  # noqa: E402
from ledger import SELF_KEYS, Ledger  # noqa: E402
from metrics import (conservation_errors, nearest_rank,  # noqa: E402
                     query_counts, ratio, response_samples, results_digest)
from workloads import WORKLOADS, Workload  # noqa: E402


#: The horizon is simulated in this many consecutive ``Simulator.run``
#: slices, with a machine-speed sample before, between and after them,
#: so the samples follow the machine through the run.  Slicing moves no
#: event: each slice runs every event up to its boundary, in order.
SLICES = 10


def run_once(wl: Workload, seed: int, traced: bool, setups: int) -> dict:
    cfg = wl.config(seed)
    if traced:
        cfg = cfg.with_(spans_enabled=True)
    ledger = Ledger() if traced else None
    cal_setup_s: list[float] = []
    setup_s = []
    with ledger.installed() if ledger is not None else nullcontext():
        for _ in range(setups):
            built = None
            gc.collect()
            cal_setup_s.append(calibrate())
            if ledger is not None:
                ledger.reset()  # the set-up split describes the last build
            t0 = time.perf_counter()
            built = build_experiment(cfg)
            setup_s.append(time.perf_counter() - t0)
        split = {}
        if ledger is not None:
            split = {f"setup.{part}_s": ledger.incl_s[key] for part, key in (
                ("grid", "GridBuilder.build"),
                ("deployment", "DIGruberDeployment.__init__"),
                ("workload", "WorkloadGenerator.host_workload"))}
            ledger.reset()  # the run's frames only from here on
        gc.collect()
        cal_run_s = [calibrate()]
        slices_s = []
        for k in range(1, SLICES + 1):
            t0 = time.perf_counter()
            built.sim.run(until=cfg.duration_s * k / SLICES)
            slices_s.append(time.perf_counter() - t0)
            cal_run_s.append(calibrate())
        run_s = sum(slices_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    still_open = open_queries(built)
    result = finalize_experiment(built)
    rec = outcomes(wl, built, result, still_open)
    rec.update(workload=wl.name, seed=seed, horizon_s=cfg.duration_s,
               traced=traced, setup_s=setup_s, run_s=run_s,
               slices_s=slices_s, cal_setup_s=cal_setup_s,
               cal_run_s=cal_run_s,
               peak_rss_mb=peak_rss_mb, events=built.sim.events_executed)
    if ledger is not None:
        rec["ledger"] = layer_metrics(ledger, built, result, rec, run_s)
        rec["ledger"].update(split)
    return rec


def open_queries(built) -> list[tuple[float, bool]]:
    """``(sent_at, timed_out)`` per query still open at the horizon.

    A query's record is written only when its brokering process ends,
    so a query in flight, in the timeout grace wait or awaiting the
    dispatch-report ack has none.  Each such query is a live
    ``broker:*`` process; its send time and timeout flag are read from
    the suspended generator's locals (``t0``, ``timed_out``).  A
    process that has not started yet sent nothing, so it counts as
    sent at the horizon.
    """
    now = built.sim.now
    found = []
    for proc in built.sim._processes:
        if proc.triggered or not proc.name.startswith("broker:"):
            continue
        gen = getattr(proc.gen, "gen", proc.gen)  # unwrap a ledger timer
        local = gen.gi_frame.f_locals
        found.append((float(local.get("t0", now)),
                      bool(local.get("timed_out", False))))
    return found


def outcomes(wl, built, result, still_open) -> dict:
    """Simulated outcomes, output checks and the results digest."""
    clients = built.clients
    jobs = [job for c in clients for job in c.jobs]
    decided = np.array([j.scheduling_accuracy is not None for j in jobs])
    handled = np.array([j.handled_by_gruber for j in jobs])
    counts = query_counts(decided, handled)
    errors = conservation_errors(
        counts, n_handled=sum(c.n_handled for c in clients),
        n_fallback=sum(c.n_fallback_timeout for c in clients),
        n_clients=len(clients))
    job_cols = result.trace.job_arrays()
    dispatched = ~np.isnan(job_cols["dispatched_at"])
    sites = set(built.grid.sites)
    stray = sum(1 for s in job_cols["site"][dispatched] if s not in sites)
    if stray:
        errors.append(f"{stray} dispatched jobs on unknown sites")
    metrics = built.sim.metrics
    for name in ("kernel.periodic_errors", "kernel.unhandled_failures"):
        if metrics.counter_value(name):
            errors.append(f"{name} = {metrics.counter_value(name)}")
    if counts["brokered"] == 0:
        errors.append("no query was brokered")
    fallback_frac = counts["fallback"] / counts["issued"]
    if wl.fallback_ceiling is not None and fallback_frac > wl.fallback_ceiling:
        errors.append(f"fallback share {fallback_frac:.4f} above ceiling "
                      f"{wl.fallback_ceiling}")
    queries = result.trace.query_arrays()
    if len(queries["sent_at"]) + len(still_open) != counts["issued"]:
        errors.append(f"{len(queries['sent_at'])} query records + "
                      f"{len(still_open)} open != {counts['issued']} issued")
    now = built.sim.now
    accuracy = job_cols["accuracy"][job_cols["handled"] & dispatched]
    return {
        "counts": counts,
        "abandoned": sum(c.n_abandoned for c in clients),
        "response_s": response_samples(
            queries["response_s"], [now - t for t, _ in still_open]).tolist(),
        "response_censored": len(still_open),
        # Client-side timeout races: the recorded flags plus the open
        # queries already past their timeout (in the grace wait).
        "client_timeouts": int(np.sum(queries["timed_out"]))
        + sum(flag for _, flag in still_open),
        "accuracy_sum": float(np.sum(accuracy)),
        "accuracy_n": int(len(accuracy)),
        "backlog_end": sum(c.backlog_len for c in clients),
        "digest": results_digest(job_cols, queries),
        "errors": errors,
    }


def _pct(values, q):
    found = nearest_rank(values, q)
    return (None, len(values)) if found is None else found


def layer_metrics(ledger: Ledger, built, result, rec: dict,
                  run_s: float) -> dict:
    """Per-layer host and sim-time metrics of one traced run."""
    self_s = ledger.self_s
    incl, calls = ledger.incl_s, ledger.calls
    issued = rec["counts"]["issued"]
    stats = built.network.stats
    dps = list(built.deployment.decision_points.values())
    metrics = built.sim.metrics
    spans = built.sim.spans.finished

    decide = [s.end - s.start for s in spans if s.name == "decide"]
    by_id = {s.span_id: s for s in spans}
    lags = [s.start - by_id[s.parent_id].start for s in spans
            if s.name == "sync.recv" and s.parent_id in by_id]
    jobs = result.trace.job_arrays()
    queue = jobs["queue_time_s"][~np.isnan(jobs["queue_time_s"])]
    queries = result.trace.query_arrays()
    late = int(np.sum(queries["timed_out"]
                      & ~np.isnan(queries["responded_at"])))
    replies = stats.rpcs_completed + stats.responses_discarded
    wakeups = calls["proc:client"] + calls["proc:broker"]
    offered = metrics.counter_value("engine.records_offered")
    adopted = metrics.counter_value("engine.records_adopted")
    decisions = calls["GruberEngine.availabilities"]
    selects = calls["SiteSelector.select"]
    fallback = rec["counts"]["fallback"]
    # The paper's client races an RPC that carries no timeout against
    # its own timer; the resilient client hands the timeout to the RPC,
    # whose expiries the transport counts.  Each expiry counts once.
    races = (rec["client_timeouts"]
             if all(c.resilience is None for c in built.clients) else 0)
    timeouts = races + stats.rpcs_timed_out

    out = {key: self_s.get(layer, 0.0) for layer, key in SELF_KEYS.items()}
    attributed = sum(out.values())
    p50_decide, n_decide = _pct(decide, 50)
    p99_decide, _ = _pct(decide, 99)
    out.update({
        "kernel.events": built.sim.events_executed,
        "kernel.events_per_query": ratio(built.sim.events_executed, issued),
        "query.issued": issued,
        "query.brokered": rec["counts"]["brokered"],
        "query.fallback": fallback,
        "query.in_flight_end": rec["counts"]["in_flight"],
        "query.fallback_frac": ratio(fallback, issued),
        "client.wakeups": wakeups,
        "client.queries_per_wakeup": ratio(issued, wakeups),
        "client.backlog_end": rec["backlog_end"],
        "client.overhead_p50_s": _pct(ledger.client_overhead_s, 50)[0],
        "client.overhead_n": len(ledger.client_overhead_s),
        "workload.jobs_materialized": calls["HostWorkload.job_at"],
        "net.rpcs": stats.rpcs_started,
        "net.rpc_timeouts": timeouts,
        "net.rpc_timeouts_per_query": ratio(timeouts, issued),
        "net.replies": replies,
        "net.replies_used": replies - stats.responses_discarded - late,
        "net.replies_used_frac": ratio(
            replies - stats.responses_discarded - late, replies),
        "net.kb": stats.kb,
        "net.wan_p50_s": _pct(ledger.wan_s, 50)[0],
        "net.wan_n": len(ledger.wan_s),
        "container.ops": sum(dp.container.completed_ops for dp in dps),
        "container.shed": sum(dp.container.shed_ops for dp in dps),
        "dp.decide_p50_s": p50_decide,
        "dp.decide_p99_s": p99_decide,
        "dp.decide_n": n_decide,
        "engine.decisions": decisions,
        "engine.us_per_decision": (
            1e6 * incl["GruberEngine.availabilities"] / decisions
            if decisions else None),
        "engine_selector.share": ratio(
            self_s.get("engine", 0.0) + self_s.get("state", 0.0)
            + self_s.get("selector", 0.0), run_s),
        "selector.calls": selects,
        "selector.us_per_call": (1e6 * incl["SiteSelector.select"] / selects
                                 if selects else None),
        "sync.rounds": sum(dp.sync.rounds_sent for dp in dps),
        "sync.records_sent": sum(dp.sync.records_sent for dp in dps),
        "sync.kb": sum(dp.sync.kb_sent for dp in dps),
        "sync.records_offered": offered,
        "sync.records_adopted": adopted,
        "sync.adopt_frac": ratio(adopted, offered),
        "sync.lag_p50_s": _pct(lags, 50)[0],
        "sync.lag_n": len(lags),
        "site.submits": calls["Site.submit"],
        "site.qtime_mean_s": float(np.mean(queue)) if len(queue) else None,
        "site.started": int(len(queue)),
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - attributed,
    })
    return out


def main(argv: list[str]) -> int:
    if (len(argv) != 4 or argv[0] not in WORKLOADS
            or argv[2] not in ("plain", "traced") or int(argv[3]) < 1):
        print(__doc__, file=sys.stderr)
        return 2
    rec = run_once(WORKLOADS[argv[0]], int(argv[1]), argv[2] == "traced",
                   int(argv[3]))
    print(json.dumps(rec, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
