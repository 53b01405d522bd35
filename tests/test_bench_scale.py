"""Smoke tests for the scale benchmark harness (benchmarks/bench_scale.py).

Committed BENCH numbers must be reproducible from any invoking shell:
measured cells run in subprocesses with a *pinned* environment
(``PYTHONHASHSEED=0``, repo ``REPRO_*`` toggles stripped).  These tests
gate that pinning plus the shard-axis plumbing (digest consistency,
speedup-floor gate) without paying for a real sweep, and the one
measured cell's row shape.
"""

import json

import pytest

from benchmarks import bench_scale


class TestCellEnv:
    def test_pins_hashseed_and_strips_repro_toggles(self, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "random")
        monkeypatch.setenv("REPRO_BENCH_DURATION", "60")
        monkeypatch.setenv("REPRO_CHAOS_DURATION", "60")
        monkeypatch.setenv("UNRELATED", "kept")
        env = bench_scale._cell_env()
        assert env["PYTHONHASHSEED"] == "0"
        assert not any(k.startswith("REPRO_") for k in env)
        assert env["UNRELATED"] == "kept"

    def test_isolated_cells_run_under_pinned_env(self, monkeypatch):
        """The subprocess entry must receive exactly ``_cell_env()``."""
        monkeypatch.setenv("REPRO_BENCH_DURATION", "9999")
        seen = {}

        class _Proc:
            returncode = 0
            stdout = json.dumps({"ok": True}) + "\n"
            stderr = ""

        def fake_run(cmd, capture_output, text, env):
            seen["cmd"] = cmd
            seen["env"] = env
            return _Proc()

        monkeypatch.setattr(bench_scale.subprocess, "run", fake_run)
        out = bench_scale._run_cell_isolated(
            dict(multiplier=1, dps=3, duration_s=60.0))
        assert out == {"ok": True}
        assert seen["env"]["PYTHONHASHSEED"] == "0"
        assert "REPRO_BENCH_DURATION" not in seen["env"]
        assert "--cell" in seen["cmd"]


class TestShardAxis:
    def test_shard_cell_reports_digest_and_rates(self):
        row = bench_scale.run_shard_cell(
            multiplier=1, dps=3, duration_s=60.0, n_shards=3)
        assert row["n_shards"] == 3 and row["mode"] == "lockstep"
        assert row["events"] > 0 and row["events_per_s"] > 0
        assert len(row["digest"]) == 8  # crc32 hex

    def test_shard_gate_accepts_consistent_fast_rows(self):
        rows = [{"multiplier": 10, "dps": 10, "digest_consistent": True,
                 "speedup_vs_serial": bench_scale.SHARD4_SPEEDUP_FLOOR}]
        ok, problems = bench_scale.shard_gate(rows)
        assert ok and problems == []

    def test_shard_gate_rejects_divergence_and_slow_rows(self):
        rows = [
            {"multiplier": 10, "dps": 10, "digest_consistent": False,
             "speedup_vs_serial": 99.0},
            {"multiplier": 10, "dps": 10, "digest_consistent": True,
             "speedup_vs_serial": 0.95},
        ]
        ok, problems = bench_scale.shard_gate(rows)
        assert not ok
        assert len(problems) == 2

    def test_shard_gate_skips_rows_without_a_serial_run(self):
        rows = [{"multiplier": 100, "dps": 10, "digest_consistent": True}]
        assert bench_scale.shard_gate(rows) == (True, [])


class TestSerialCell:
    def test_cell_row_has_one_mode(self):
        row = bench_scale.run_cell(multiplier=1, dps=3, duration_s=60.0)
        assert row["events"] > 0 and row["events_per_s"] > 0
        assert not {"optimized", "batch", "vector_drains"} & set(row)
        # The cell measures the default configuration (flooding sync):
        # the same run, event for event, as a bare scale_config.
        from repro.experiments import run_experiment
        from repro.experiments.configs import scale_config
        plain = run_experiment(scale_config(
            multiplier=1, decision_points=3, duration_s=60.0,
            name="scale-1x-3dp"))
        assert row["events"] == plain.sim.events_executed

    def test_heap_bound_holds(self):
        bound = bench_scale.measure_heap_bound(n_rpcs=2_000)
        assert bound["bounded"] and bound["heap_end"] == 0
