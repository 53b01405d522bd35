"""The free-CPU column behind availability answers.

* :class:`FreeSnapshot` — the immutable ``Mapping`` a view hands out;
* a Hypothesis property: after any sequence of view writes, the view's
  snapshot equals that of :class:`ReferenceStateView` (the unindexed
  scans the indexes replaced, kept here as the oracle) entry for entry,
  old snapshots never change, and unwritten views return the same
  object;
* selector equivalence against the dict-scan implementations the
  column replaced (kept here as the oracle): same pick, same rng state;
* ``audit()`` reports a corrupted column entry.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GruberEngine
from repro.core.selectors import (
    LeastRecentlyUsedSelector,
    LeastUsedSelector,
    RandomSelector,
    RoundRobinSelector,
    least_bad_site,
)
from repro.core.state import DispatchRecord, FreeSnapshot, GridStateView

SITES = {"s0": 100, "s1": 50, "s2": 10, "s3": 50}
SUBSET = ("s2", "s0")
LIFETIME = 100.0


# ---------------------------------------------------------------------------
# FreeSnapshot
# ---------------------------------------------------------------------------

class TestFreeSnapshot:
    def test_mapping_surface(self):
        snap = GridStateView(SITES).free_map()
        assert isinstance(snap, FreeSnapshot)
        assert list(snap) == list(SITES)
        assert snap == {s: float(c) for s, c in SITES.items()}
        assert snap["s1"] == 50.0 and type(snap["s1"]) is float
        assert snap.get("nope", -1.0) == -1.0 and "nope" not in snap
        assert len(snap) == 4 and snap.names == tuple(SITES)

    def test_column_is_read_only(self):
        snap = GridStateView(SITES).free_map()
        with pytest.raises(ValueError):
            snap.free[0] = 1.0

    def test_views_over_one_site_list_share_the_order(self):
        a = GridStateView(dict(SITES)).free_map()
        b = GridStateView(dict(SITES)).free_map()
        assert a.order is b.order
        assert GridStateView({"x": 1}).free_map().order is not a.order

    def test_adapter_keeps_dict_order_and_passes_snapshots_through(self):
        d = {"b": 3, "a": 1.5}
        snap = FreeSnapshot.of(d)
        assert snap.names == ("b", "a") and snap.free.tolist() == [3.0, 1.5]
        assert FreeSnapshot.of(snap) is snap

    def test_extension_appends_and_keeps_subset_positions(self):
        view = GridStateView({"s0": 10, "s1": 20})
        sub = view.free_subset(["s1"])
        view.extend_capacities({"s1": 99, "s2": 30})
        assert list(view.free_map().items()) == [
            ("s0", 10.0), ("s1", 20.0), ("s2", 30.0)]
        assert view.free_subset(["s1"]) == sub
        assert view.audit() == []


# ---------------------------------------------------------------------------
# Indexed view vs the scanning reference, under random write sequences
# ---------------------------------------------------------------------------

class ReferenceStateView(GridStateView):
    """The view's queries as plain scans, without the indexes.

    :meth:`expire` walks every site heap instead of popping the
    grid-wide expiry heap, :meth:`pending_records` filters every live
    record instead of walking the learn ring, and availability answers
    are recomputed dicts instead of shared column snapshots.  Writes are
    inherited, so the oracle differs from the view only in how it
    answers.
    """

    def expire(self, now: float) -> int:
        if now > self.latest_time:
            self.latest_time = now
        cutoff = now - self.assumed_job_lifetime_s
        dropped = 0
        for heap in self._records.values():
            while heap and heap[0][0] < cutoff:
                _, _, rec = heapq.heappop(heap)
                self._drop(rec)
                dropped += 1
        if dropped:
            self._prune_log()
        return dropped

    def free_map(self, now: Optional[float] = None) -> dict:
        if now is not None:
            self.expire(now)
        return {s: self.estimated_free(s) for s in self.capacities}

    def free_subset(self, sites, now: Optional[float] = None) -> dict:
        if now is not None:
            self.expire(now)
        return {s: self.estimated_free(s) for s in sites}

    def pending_records(self, newer_than: float) -> list:
        learned = self._learned_at
        return [rec for heap in self._records.values()
                for _, _, rec in heap
                if learned.get(rec.key, -float("inf")) > newer_than]


def _engines():
    reference = GruberEngine("dp0", dict(SITES),
                             assumed_job_lifetime_s=LIFETIME)
    reference.view = ReferenceStateView(dict(SITES),
                                        assumed_job_lifetime_s=LIFETIME)
    return (GruberEngine("dp0", dict(SITES), assumed_job_lifetime_s=LIFETIME),
            reference)


def _record(data, origin: str, sites: list, clock: float) -> DispatchRecord:
    # A small seq range makes redeliveries (and reused keys) common.
    return DispatchRecord(
        origin=origin, seq=data.draw(st.integers(1, 25)),
        site=data.draw(st.sampled_from(sites)),
        vo=data.draw(st.sampled_from(["atlas", "cms"])),
        cpus=data.draw(st.integers(1, 30)),
        time=max(clock - data.draw(st.floats(0.0, 150.0)), 0.0),
        group=data.draw(st.sampled_from(["", "higgs"])))


OPS = ("apply", "merge", "expire", "refresh", "extend", "advance")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_indexed_view_matches_legacy_under_random_writes(data):
    fast, slow = _engines()
    clock = 0.0
    for _ in range(data.draw(st.integers(1, 40))):
        before = fast.view.free_map()
        before_items = list(before.items())
        sites = list(fast.view.capacities)
        op = data.draw(st.sampled_from(OPS))
        if op == "apply":
            rec = _record(data, "dp0", sites, clock)
            assert (fast.view.apply_record(rec, now=clock)
                    == slow.view.apply_record(rec, now=clock))
        elif op == "merge":
            recs = [_record(data, "dp1", sites, clock)
                    for _ in range(data.draw(st.integers(0, 4)))]
            assert (fast.merge_remote_records(recs, now=clock)
                    == slow.merge_remote_records(recs, now=clock))
        elif op == "expire":
            assert fast.view.expire(clock) == slow.view.expire(clock)
        elif op == "refresh":
            site = data.draw(st.sampled_from(sites))
            busy = data.draw(st.floats(0.0, float(fast.view.capacities[site])))
            fast.view.refresh_site(site, busy, clock)
            slow.view.refresh_site(site, busy, clock)
        elif op == "extend":
            more = data.draw(st.dictionaries(
                st.sampled_from(["s1", "s4", "s5", "s6"]),
                st.integers(1, 64), max_size=3))
            fast.view.extend_capacities(more)
            slow.view.extend_capacities(more)
        else:
            clock += data.draw(st.floats(0.1, 80.0))

        snap = fast.view.free_map()
        assert list(snap.items()) == list(slow.view.free_map().items())
        assert list(before.items()) == before_items  # untouched by writes
        assert fast.view.free_map() is snap           # shared until a write
        sub = fast.view.free_subset(SUBSET)
        assert list(sub.items()) == list(slow.view.free_subset(SUBSET).items())
        assert fast.view.free_subset(SUBSET) is sub
        assert fast.view.audit() == [] and slow.view.audit() == []


# ---------------------------------------------------------------------------
# Selectors vs the dict-scan oracle
# ---------------------------------------------------------------------------

def _fitting(avail: dict, cpus: int) -> list:
    return [s for s, free in avail.items() if free >= cpus]


class _OracleRandom:
    def __init__(self, rng):
        self.rng = rng

    def select(self, avail, cpus) -> Optional[str]:
        fitting = _fitting(avail, cpus)
        if not fitting:
            return None
        return fitting[int(self.rng.integers(0, len(fitting)))]


class _OracleRoundRobin:
    def __init__(self, rng=None):
        self._cursor = 0

    def select(self, avail, cpus) -> Optional[str]:
        fitting = sorted(_fitting(avail, cpus))
        if not fitting:
            return None
        choice = fitting[self._cursor % len(fitting)]
        self._cursor += 1
        return choice


class _OracleLeastUsed:
    def __init__(self, rng, spread=1.0):
        self.rng = rng
        self.spread = spread

    def select(self, avail, cpus) -> Optional[str]:
        fitting = _fitting(avail, cpus)
        if not fitting:
            return None
        best = max(avail[s] for s in fitting)
        top = [s for s in fitting if avail[s] >= self.spread * best]
        if len(top) == 1:
            return top[0]
        return top[int(self.rng.integers(0, len(top)))]


class _OracleLRU:
    def __init__(self, rng=None):
        self._last_used: dict = {}
        self._tick = 0

    def select(self, avail, cpus) -> Optional[str]:
        fitting = _fitting(avail, cpus)
        if not fitting:
            return None
        choice = min(fitting, key=lambda s: (self._last_used.get(s, -1), s))
        self._tick += 1
        self._last_used[choice] = self._tick
        return choice


def _oracle_least_bad(avail: dict, rng) -> str:
    best = max(avail.values())
    top = [s for s, v in avail.items() if v >= best - 1e-9]
    return top[int(rng.integers(0, len(top)))]


PAIRS = {
    "random": (RandomSelector, _OracleRandom, {}),
    "round_robin": (lambda rng: RoundRobinSelector(), _OracleRoundRobin, {}),
    "least_used": (LeastUsedSelector, _OracleLeastUsed, {}),
    "least_used_0.85": (LeastUsedSelector, _OracleLeastUsed,
                        {"spread": 0.85}),
    "lru": (lambda rng: LeastRecentlyUsedSelector(), _OracleLRU, {}),
}

#: Few distinct values (ties are common), near-ties, USLA-style zeros.
FREE = st.one_of(st.sampled_from([0.0, 1.0, 4.0, 4.0 + 1e-12, 10.0,
                                  12.5, 50.0]),
                 st.floats(0.0, 64.0))
MAPS = st.dictionaries(st.sampled_from([f"site{i:02d}" for i in range(14)]),
                       FREE, min_size=1, max_size=14)
CPUS = st.sampled_from([1, 4, 11, 50, 1000])  # 1000: nothing fits


def _state(rng) -> dict:
    return rng.bit_generator.state


@pytest.mark.parametrize("policy", sorted(PAIRS))
@settings(max_examples=60, deadline=None)
@given(queries=st.lists(st.tuples(MAPS, CPUS, st.booleans()), min_size=1,
                        max_size=12),
       seed=st.integers(0, 2 ** 16))
def test_selectors_match_dict_oracle(policy, queries, seed):
    make_new, make_oracle, kw = PAIRS[policy]
    new_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
    new = make_new(new_rng, **kw)
    oracle = make_oracle(oracle_rng, **kw)
    for avail, cpus, as_snapshot in queries:
        arg = FreeSnapshot.of(avail) if as_snapshot else avail
        assert new.select(arg, cpus) == oracle.select(avail, cpus)
        assert _state(new_rng) == _state(oracle_rng)


@pytest.mark.parametrize("spread", [0.85, 1.0])
def test_least_used_single_site_draws_nothing(spread):
    rng = np.random.default_rng(3)
    before = _state(rng)
    assert LeastUsedSelector(rng, spread).select({"only": 8.0}, 4) == "only"
    assert _state(rng) == before


@settings(max_examples=100, deadline=None)
@given(avail=MAPS, seed=st.integers(0, 2 ** 16), as_snapshot=st.booleans())
def test_least_bad_matches_dict_oracle(avail, seed, as_snapshot):
    new_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
    arg = FreeSnapshot.of(avail) if as_snapshot else avail
    assert least_bad_site(arg, new_rng) == _oracle_least_bad(avail, oracle_rng)
    assert _state(new_rng) == _state(oracle_rng)


def test_selectors_accept_live_view_snapshots():
    view = GridStateView({"a": 10, "b": 40, "c": 40})
    view.apply_record(DispatchRecord("dp0", 1, "b", "cms", 5, 0.0))
    rng = np.random.default_rng(0)
    assert LeastUsedSelector(rng).select(view.free_map(), 4) == "c"
    assert LeastUsedSelector(rng).select(view.free_subset(("a",)), 4) == "a"


# ---------------------------------------------------------------------------
# audit() guards the column
# ---------------------------------------------------------------------------

class TestAuditColumn:
    def test_corrupted_column_entry_is_reported(self):
        view = GridStateView(dict(SITES))
        view.apply_record(DispatchRecord("dp0", 1, "s1", "cms", 5, 0.0))
        assert view.audit() == []
        view._free[view._pos["s1"]] += 1.0
        problems = view.audit()
        assert problems == ["free column[s1]=46.0 != recomputed 45.0"]

    def test_stale_current_snapshot_is_reported(self):
        view = GridStateView(dict(SITES))
        view.free_map()
        # A column write that skips the version bump would leave readers
        # on an out-of-date "current" snapshot.
        view._free[view._pos["s2"]] = 3.0
        problems = view.audit()
        assert "current free snapshot differs from the column" in problems
        assert "free column[s2]=3.0 != recomputed 10.0" in problems


class TestMonitorSweep:
    def test_sweep_matches_per_site_refreshes(self):
        a, b = GridStateView(dict(SITES)), GridStateView(dict(SITES))
        for view in (a, b):
            view.apply_record(DispatchRecord("dp0", 1, "s1", "cms", 5, 1.0))
            view.apply_record(DispatchRecord("dp0", 2, "s2", "cms", 4, 9.0))
        sweep = {"s1": 20.0, "s2": 8.0, "s0": 0.0}
        a.refresh_all(sweep, now=5.0)
        for site, busy in sweep.items():
            b.refresh_site(site, busy, now=5.0)
        assert list(a.free_map().items()) == list(b.free_map().items())
        assert a.free_map()["s2"] == 0.0  # 8 + a newer 4 clamps at 10
        assert a.audit() == []

    def test_unknown_site_rejected_before_any_refresh(self):
        view = GridStateView(dict(SITES))
        before = view.free_map()
        with pytest.raises(KeyError):
            view.refresh_all({"s0": 10.0, "nope": 1.0}, now=5.0)
        assert view.free_map() is before and view.audit() == []
