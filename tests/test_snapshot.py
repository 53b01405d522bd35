"""Snapshot format, codec, atomic writes, and round-trip properties."""

import json
import os
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.invariants import check_snapshot_invariants
from repro.experiments.configs import canonical_gt4, smoke_config
from repro.experiments.runner import build_experiment
from repro.sim.snapshot import (
    SnapshotError,
    checkpoint_filename,
    decode_config,
    encode_config,
    newest_checkpoint,
    read_snapshot,
    snapshot_experiment,
    state_digest,
    write_snapshot,
)


def _config(**overrides):
    return smoke_config(n_clients=4, duration_s=120.0, **overrides)


class TestConfigCodec:
    def test_round_trip_smoke(self):
        config = _config()
        assert decode_config(encode_config(config)) == config

    def test_round_trip_survives_json(self):
        config = _config()
        blob = json.dumps(encode_config(config))
        assert decode_config(json.loads(blob)) == config

    def test_round_trip_nested_dataclasses(self):
        from repro.control import AutoscaleConfig
        from repro.resilience import ResilienceConfig
        config = canonical_gt4(3, duration_s=300.0,
                               resilience=ResilienceConfig(),
                               autoscale=AutoscaleConfig())
        restored = decode_config(json.loads(json.dumps(
            encode_config(config))))
        assert restored == config
        # tuple-ness restored (JSON lists them)
        assert isinstance(restored.job_model.cpu_choices, tuple)


class TestOnDiskFormat:
    def test_write_read_round_trip(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=60.0)
        snap = snapshot_experiment(built)
        path = write_snapshot(snap, str(tmp_path / "s.json"))
        # JSON turns tuples into lists, so compare canonically: the
        # read-back body must digest identically, section for section.
        reread = read_snapshot(path)
        assert reread["digests"] == snap["digests"]
        for section, value in reread["state"].items():
            assert state_digest(value) == snap["digests"][section], section
        assert reread["event_count"] == snap["event_count"]
        assert reread["time"] == snap["time"]

    def test_crc_detects_corruption(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=30.0)
        path = write_snapshot(snapshot_experiment(built),
                              str(tmp_path / "s.json"))
        doc = json.loads(open(path).read())
        doc["snapshot"]["time"] += 1.0
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(SnapshotError, match="CRC"):
            read_snapshot(path)

    def test_rejects_foreign_and_future_files(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"hello": 1}')
        with pytest.raises(SnapshotError, match="not a"):
            read_snapshot(str(p))
        # 1: the sync section's shape changed in version 2.
        for version in (99, 1):
            p.write_text(json.dumps({
                "meta": {"format": "digruber-snapshot", "version": version,
                         "crc": "0"},
                "snapshot": {}}))
            with pytest.raises(SnapshotError, match="version"):
                read_snapshot(str(p))

    def test_truncated_file_rejected(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=30.0)
        path = write_snapshot(snapshot_experiment(built),
                              str(tmp_path / "s.json"))
        blob = open(path).read()
        open(path, "w").write(blob[:len(blob) // 2])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=30.0)
        write_snapshot(snapshot_experiment(built), str(tmp_path / "s.json"))
        assert os.listdir(tmp_path) == ["s.json"]


class TestNewestCheckpoint:
    def _write(self, directory, t, n):
        built = build_experiment(_config())
        built.sim.run(until=t)
        return write_snapshot(
            snapshot_experiment(built),
            os.path.join(directory, checkpoint_filename(t, n)))

    def test_empty_and_missing_dir(self, tmp_path):
        assert newest_checkpoint(str(tmp_path)) is None
        assert newest_checkpoint(str(tmp_path / "nope")) is None

    def test_picks_highest_valid(self, tmp_path):
        self._write(str(tmp_path), 30.0, 100)
        newest = self._write(str(tmp_path), 60.0, 200)
        assert newest_checkpoint(str(tmp_path)) == newest

    def test_skips_corrupt_newest(self, tmp_path):
        """Crash-mid-write: a truncated newest candidate is skipped and
        the previous valid checkpoint restores instead."""
        older = self._write(str(tmp_path), 30.0, 100)
        newest = self._write(str(tmp_path), 60.0, 200)
        blob = open(newest).read()
        open(newest, "w").write(blob[:200])  # SIGKILL mid-write
        assert newest_checkpoint(str(tmp_path)) == older

    def test_ignores_inflight_tmp_files(self, tmp_path):
        older = self._write(str(tmp_path), 30.0, 100)
        (tmp_path / (checkpoint_filename(60.0, 200) + ".tmp.123")) \
            .write_text("{half a writ")
        assert newest_checkpoint(str(tmp_path)) == older


class TestSnapshotInvariants:
    def test_capture_is_read_only_and_stable(self):
        built = build_experiment(_config())
        built.sim.run(until=90.0)
        check_snapshot_invariants(built)

    def test_digest_is_canonical_crc(self):
        state = {"b": 2, "a": [1, 2.5, None]}
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        assert state_digest(state) == format(
            zlib.crc32(blob.encode()) & 0xFFFFFFFF, "08x")


class TestRoundTripProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(boundary=st.integers(min_value=50, max_value=1500))
    def test_snapshot_restore_snapshot_byte_stable(self, boundary):
        """snapshot -> replay-restore -> snapshot is byte-stable at an
        arbitrary event boundary, not just checkpoint-tick boundaries."""
        config = _config(seed=4242)
        a = build_experiment(config)
        a.sim.run_to_event(boundary)
        snap = snapshot_experiment(a)
        assert snap["event_count"] == boundary

        b = build_experiment(config)
        b.sim.run_to_event(boundary)
        again = snapshot_experiment(b)
        assert json.dumps(snap, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t=st.floats(min_value=10.0, max_value=110.0,
                       allow_nan=False, allow_infinity=False))
    def test_capture_at_arbitrary_time_is_stable(self, t):
        config = _config(seed=777)
        a = build_experiment(config)
        a.sim.run(until=t)
        b = build_experiment(config)
        b.sim.run(until=t)
        assert state_digest(snapshot_experiment(a)["state"]) == \
            state_digest(snapshot_experiment(b)["state"])
