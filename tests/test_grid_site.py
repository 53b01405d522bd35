"""Tests for site-local FIFO scheduling and accounting."""

import pytest

from repro.grid import Cluster, Job, JobState, Site
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_site(sim, cpus=4, name="s"):
    return Site(sim, name, [Cluster(f"{name}-c0", cpus)])


def make_job(cpus=1, duration=10.0):
    return Job(vo="vo0", group="g0", user="u0", cpus=cpus, duration_s=duration)


class TestConstruction:
    def test_total_cpus_sums_clusters(self, sim):
        s = Site(sim, "s", [Cluster("a", 3), Cluster("b", 5)])
        assert s.total_cpus == 8

    def test_empty_clusters_rejected(self, sim):
        with pytest.raises(ValueError):
            Site(sim, "s", [])

    def test_bad_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster("c", 0)


class TestScheduling:
    def test_job_starts_immediately_when_free(self, sim):
        s = make_site(sim)
        j = make_job()
        s.submit(j)
        assert j.state == JobState.RUNNING
        assert s.free_cpus == 3

    def test_job_completes_after_duration(self, sim):
        s = make_site(sim)
        j = make_job(duration=25.0)
        s.submit(j)
        sim.run()
        assert j.state == JobState.COMPLETED
        assert j.completed_at == 25.0
        assert s.free_cpus == 4

    def test_queueing_when_full(self, sim):
        s = make_site(sim, cpus=1)
        j1, j2 = make_job(duration=10.0), make_job(duration=10.0)
        s.submit(j1)
        s.submit(j2)
        assert j2.state == JobState.DISPATCHED
        assert s.queue_length == 1
        sim.run()
        assert j2.started_at == 10.0 and j2.completed_at == 20.0

    def test_fifo_order(self, sim):
        s = make_site(sim, cpus=1)
        jobs = [make_job(duration=1.0) for _ in range(5)]
        for j in jobs:
            s.submit(j)
        sim.run()
        starts = [j.started_at for j in jobs]
        assert starts == sorted(starts)

    def test_head_of_line_blocking(self, sim):
        s = make_site(sim, cpus=4)
        big = make_job(cpus=4, duration=10.0)
        blocker = make_job(cpus=3, duration=10.0)
        small = make_job(cpus=1, duration=10.0)
        s.submit(big)       # occupies everything
        s.submit(blocker)   # waits
        s.submit(small)     # fits now, but FIFO blocks it behind `blocker`
        sim.run(until=5.0)
        assert blocker.state == JobState.DISPATCHED
        assert small.state == JobState.DISPATCHED

    def test_oversized_job_fails(self, sim):
        s = make_site(sim, cpus=2)
        j = make_job(cpus=8)
        s.submit(j)
        assert j.state == JobState.FAILED

    def test_multi_cpu_accounting(self, sim):
        s = make_site(sim, cpus=8)
        s.submit(make_job(cpus=3, duration=100.0))
        s.submit(make_job(cpus=4, duration=100.0))
        assert s.busy_cpus == 7 and s.free_cpus == 1

    def test_callbacks_fire(self, sim):
        s = make_site(sim)
        started, completed = [], []
        s.on_job_started.append(lambda j: started.append(j.jid))
        s.on_job_completed.append(lambda j: completed.append(j.jid))
        j = make_job(duration=5.0)
        s.submit(j)
        sim.run()
        assert started == [j.jid] and completed == [j.jid]

    def test_counters(self, sim):
        s = make_site(sim, cpus=1)
        for _ in range(3):
            s.submit(make_job(duration=1.0))
        sim.run()
        assert s.jobs_dispatched == 3 and s.jobs_completed == 3


class TestBackfill:
    def _backfill_site(self, sim, cpus=4):
        return Site(sim, "b", [Cluster("c", cpus)], backfill=True)

    def test_small_job_slips_past_blocked_wide_job(self, sim):
        s = self._backfill_site(sim)
        s.submit(make_job(cpus=3, duration=100.0))  # running, 1 free
        wide = make_job(cpus=4, duration=10.0)
        small = make_job(cpus=1, duration=10.0)
        s.submit(wide)   # cannot fit
        s.submit(small)  # fits the leftover CPU
        assert wide.state == JobState.DISPATCHED
        assert small.state == JobState.RUNNING

    def test_queue_order_respected_among_fitting(self, sim):
        s = self._backfill_site(sim, cpus=2)
        first = make_job(cpus=2, duration=10.0)
        second = make_job(cpus=1, duration=10.0)
        third = make_job(cpus=1, duration=10.0)
        s.submit(make_job(cpus=2, duration=5.0))  # occupies both CPUs
        for j in (first, second, third):
            s.submit(j)
        sim.run(until=6.0)
        # At t=5 both CPUs free: first (2 cpus) starts; others wait.
        assert first.state == JobState.RUNNING
        assert second.state == JobState.DISPATCHED

    def test_wide_job_eventually_runs(self, sim):
        s = self._backfill_site(sim)
        s.submit(make_job(cpus=4, duration=10.0))
        wide = make_job(cpus=4, duration=10.0)
        s.submit(wide)
        s.submit(make_job(cpus=1, duration=3.0))
        sim.run()
        assert wide.state == JobState.COMPLETED

    def test_capacity_never_exceeded(self, sim):
        s = self._backfill_site(sim, cpus=8)
        for cpus in (3, 3, 3, 2, 1, 5, 4):
            s.submit(make_job(cpus=cpus, duration=20.0))
        assert s.busy_cpus <= 8
        sim.run()
        assert s.jobs_completed == 7

    def test_builder_backfill_flag(self):
        from repro.grid import GridBuilder
        from repro.sim import RngRegistry
        sim = Simulator()
        grid = GridBuilder(sim, RngRegistry(0).stream("g")).build(
            n_sites=2, total_cpus=32, backfill=True)
        assert all(s.backfill for s in grid.sites.values())


class TestAccounting:
    def test_utilization_full_busy(self, sim):
        s = make_site(sim, cpus=2)
        s.submit(make_job(cpus=2, duration=10.0))
        sim.run(until=10.0)
        assert s.utilization() == pytest.approx(1.0)

    def test_utilization_partial(self, sim):
        s = make_site(sim, cpus=4)
        s.submit(make_job(cpus=1, duration=10.0))
        sim.run(until=20.0)
        # 1 cpu busy for 10 s of a 4-cpu site over 20 s => 10/(4*20)
        assert s.utilization() == pytest.approx(10.0 / 80.0)

    def test_utilization_zero_time(self, sim):
        assert make_site(sim).utilization() == 0.0

    def test_vo_cpu_seconds(self, sim):
        s = make_site(sim, cpus=4)
        j = Job(vo="atlas", group="g", user="u", cpus=2, duration_s=30.0)
        s.submit(j)
        sim.run()
        assert s.vo_cpu_seconds == {"atlas": pytest.approx(60.0)}

    def test_snapshot(self, sim):
        s = make_site(sim, cpus=4)
        s.submit(make_job(duration=100.0))
        snap = s.snapshot()
        assert snap == {"name": "s", "total_cpus": 4, "free_cpus": 3,
                        "queue_length": 0, "running_jobs": 1}


class TestFaultInjection:
    def test_fail_running_job_frees_cpus(self, sim):
        s = make_site(sim, cpus=2)
        j = make_job(cpus=2, duration=100.0)
        s.submit(j)
        sim.run(until=10.0)
        s.fail_running_job(j.jid)
        assert j.state == JobState.FAILED
        assert s.free_cpus == 2

    def test_fail_unknown_job_raises(self, sim):
        s = make_site(sim)
        with pytest.raises(KeyError):
            s.fail_running_job(999)

    def test_failure_unblocks_queue(self, sim):
        s = make_site(sim, cpus=1)
        j1 = make_job(duration=100.0)
        j2 = make_job(duration=5.0)
        s.submit(j1)
        s.submit(j2)
        sim.run(until=10.0)
        s.fail_running_job(j1.jid)
        assert j2.state == JobState.RUNNING


class TestUtilizationWindow:
    def test_until_clamps_the_live_tail(self, sim):
        # Regression: the live busy segment used to be integrated to
        # sim.now regardless of ``until``, so a fully-busy 2-CPU site
        # queried over [0, 10] at now=20 reported utilization 2.0.
        s = make_site(sim, cpus=2)
        s.submit(make_job(cpus=2, duration=100.0))
        sim.run(until=20.0)
        assert s.utilization(until=10.0) == pytest.approx(1.0)
        assert s.utilization(until=20.0) == pytest.approx(1.0)

    def test_repeated_queries_at_one_instant_agree(self, sim):
        # The query must never mutate the integral: asking twice at the
        # same timestamp returns the same answer.
        s = make_site(sim, cpus=2)
        s.submit(make_job(cpus=1, duration=50.0))
        sim.run(until=30.0)
        first = s.utilization()
        assert s.utilization() == pytest.approx(first)
        assert first == pytest.approx(30.0 / 60.0)

    def test_until_inside_last_segment_stays_bounded(self, sim):
        # ``until`` inside the last committed segment is answered with
        # the committed integral (per-segment history is not kept) but
        # can never exceed 1.0 the way the unclamped tail could.
        s = make_site(sim, cpus=2)
        s.submit(make_job(cpus=2, duration=15.0))
        sim.run(until=40.0)
        for until in (5.0, 12.0, 15.0, 40.0):
            assert 0.0 < s.utilization(until=until) <= 1.0 + 1e-12


class TestDeepFifoDrain:
    def test_start_and_complete_sequence(self):
        """A blocker pins the site busy so a deep FIFO backlog builds,
        then its completion triggers one deep drain.  The sequence is
        the one both the scalar and the former numpy-prefix drains
        produced."""
        sim = Simulator()
        s = Site(sim, "s", [Cluster("c", 8)])
        started = []
        completed = []
        s.on_job_started.append(lambda j: started.append((sim.now, j.jid)))
        s.on_job_completed.append(lambda j: completed.append((sim.now, j.jid)))
        s.submit(Job(vo="vo0", group="g0", user="u0", cpus=8,
                     duration_s=10.0, jid=1000))
        for i in range(40):
            s.submit(Job(vo="vo0", group="g0", user="u0",
                         cpus=1 + (i % 3), duration_s=5.0 + i, jid=i))
        sim.run()
        start_times = [0, 10, 10, 10, 10, 15, 17, 17, 18, 27, 27, 28, 40, 40,
                       41, 56, 56, 57, 75, 75, 76, 97, 97, 98, 122, 122, 123,
                       150, 150, 151, 181, 181, 182, 215, 215, 216, 252, 252,
                       253, 292, 292]
        jids = [1000] + list(range(40))
        assert started == [(float(t), j) for t, j in zip(start_times, jids)]
        # Every job runs exactly its duration, and completions pop in
        # time order (FIFO start order breaks no ties here).
        durations = [10.0] + [5.0 + i for i in range(40)]
        assert completed == [(t + d, j) for t, d, j in
                             zip(start_times, durations, jids)]
        assert s.jobs_completed == 41
        assert s.utilization(until=200.0) == 1.0
