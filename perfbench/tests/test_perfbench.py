"""Self-tests of the benchmark: metric rules, read-only tracing, smoke runs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess

import numpy as np
import pytest

from ledger import SELF_KEYS
from metrics import (conservation_errors, nearest_rank, query_counts,
                     response_samples, results_digest)
from repro.experiments.configs import smoke_config
from workloads import WORKLOADS, Workload
from worker import run_once

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

SMOKE = Workload(name="smoke", why="tests", horizon_s=300.0, seeds=1,
                 run_s=1.0, fallback_ceiling=None,
                 _build=lambda seed, h: smoke_config(
                     decision_points=2, duration_s=h, seed=seed))


# -- percentiles ----------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert nearest_rank(range(19), 50) is None       # 9 samples beyond
    assert nearest_rank(range(20), 50) == (9.0, 20)  # 10 beyond
    assert nearest_rank(range(999), 99) is None
    assert nearest_rank(range(1000), 99) == (989.0, 1000)


def test_percentile_of_empty_or_nan_samples_is_not_reported():
    assert nearest_rank([], 50) is None
    assert nearest_rank([1.0] * 30 + [float("nan")], 50) is None


def test_unanswered_queries_count_as_infinite_latency():
    samples = response_samples(np.array([1.0, np.nan, 2.0]), [])
    assert samples[1] == math.inf and samples[0] == 1.0
    # 25 answered, 25 abandoned: the median lands on +inf ...
    mixed = response_samples(np.array([1.0] * 25 + [np.nan] * 25), [])
    assert nearest_rank(mixed, 50) == (1.0, 50)
    assert nearest_rank(mixed, 60) == (math.inf, 50)


def test_open_queries_enter_as_lower_bounds():
    samples = response_samples(np.array([1.0, np.nan]), [30.0, 0.0])
    assert sorted(samples.tolist()) == [0.0, 1.0, 30.0, math.inf]
    # 30 recorded at 1 s and 20 still open for 40 s: the open ones set
    # the upper percentiles instead of being left out.
    censored = response_samples(np.array([1.0] * 30), [40.0] * 20)
    assert nearest_rank(censored, 50) == (1.0, 50)
    assert nearest_rank(censored, 70) == (40.0, 50)


# -- outcome counting ------------------------------------------------------
def test_fallback_counts_decided_but_unhandled_queries():
    decided = np.array([True, True, True, False, True])
    handled = np.array([True, False, True, False, False])
    assert query_counts(decided, handled) == {
        "issued": 5, "brokered": 2, "fallback": 2, "in_flight": 1}


def test_handled_but_undecided_query_is_rejected():
    with pytest.raises(ValueError):
        query_counts(np.array([False]), np.array([True]))


def test_conservation_flags_counter_mismatch_and_open_loop():
    counts = {"issued": 10, "brokered": 6, "fallback": 3, "in_flight": 1}
    assert conservation_errors(counts, 6, 3, n_clients=1) == []
    assert len(conservation_errors(counts, 5, 3, n_clients=1)) == 1
    assert len(conservation_errors(counts, 6, 3, n_clients=0)) == 1
    broken = dict(counts, issued=11)
    assert conservation_errors(broken, 6, 3, n_clients=4)


def test_digest_is_order_independent_over_jobs_but_sees_any_change():
    jobs = {"jid": np.array([2, 1]), "site": np.array(["b", "a"], object),
            "handled": np.array([True, False]),
            "dispatched_at": np.array([1.0, np.nan]),
            "started_at": np.array([2.0, np.nan])}
    queries = {"sent_at": np.array([0.5]), "response_s": np.array([0.25])}
    base = results_digest(jobs, queries)
    flipped = {k: v[::-1] for k, v in jobs.items()}
    assert results_digest(flipped, queries) == base
    moved = dict(jobs, site=np.array(["c", "a"], object))
    assert results_digest(moved, queries) != base
    later = {"sent_at": queries["sent_at"], "response_s": np.array([0.3])}
    assert results_digest(jobs, later) != base


# -- tracing is read-only ----------------------------------------------------
def test_traced_run_matches_untraced_digest_and_accounts_for_wall_time():
    plain = run_once(SMOKE, seed=7, traced=False, setups=1)
    traced = run_once(SMOKE, seed=7, traced=True, setups=2)
    assert plain["errors"] == [] and traced["errors"] == []
    assert traced["digest"] == plain["digest"]
    assert traced["counts"] == plain["counts"]
    ledger = traced["ledger"]
    attributed = sum(ledger[key] for key in SELF_KEYS.values())
    assert attributed + ledger["trace.unattributed_s"] == pytest.approx(
        traced["run_s"])
    assert 0 <= ledger["trace.unattributed_s"] < 0.01 * traced["run_s"]
    assert ledger["client.wakeups"] > 0 and ledger["sync.rounds"] > 0
    assert ledger["setup.grid_s"] > 0


# -- each workload, briefly ------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name):
    wl = dataclasses.replace(WORKLOADS[name], horizon_s=90.0)
    rec = run_once(wl, seed=3, traced=False, setups=1)
    assert rec["errors"] == []
    assert rec["counts"]["brokered"] > 0


def test_without_program_source_the_benchmark_fails_without_a_result(
        tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        bench["command"] + ["--workload", "paper-1x", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
