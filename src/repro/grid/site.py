"""Sites: clusters of CPUs with a FIFO local scheduler.

Per the paper's experimental setup, site policy enforcement points
(S-PEPs) are out of scope — "the decision points have total control
over scheduling decisions" — so a site simply runs whatever it is sent,
FIFO, as CPUs free up.  Sites track per-VO usage and busy-CPU
integrals, which feed the Util metric and the decision points' monitor
views.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.grid.job import Job, JobState
from repro.sim.kernel import Simulator

__all__ = ["Cluster", "Site"]


@dataclass(frozen=True)
class Cluster:
    """A homogeneous pool of CPUs within a site."""

    name: str
    cpus: int

    def __post_init__(self):
        if self.cpus < 1:
            raise ValueError(f"cluster {self.name!r} needs >= 1 CPU")


class Site:
    """One resource-provider site.

    The default scheduler is strict FIFO with head-of-line blocking: a
    queued job that does not fit keeps later jobs waiting (matching
    simple space-shared cluster schedulers of the Grid3 era, where this
    is the conservative default).  ``backfill=True`` switches to an
    aggressive backfill discipline: any queued job that fits may start,
    in queue order (EASY-style without reservations — small jobs slip
    past a stuck wide job).  Each started job gets its own completion
    timer.
    """

    def __init__(self, sim: Simulator, name: str, clusters: list[Cluster],
                 backfill: bool = False):
        if not clusters:
            raise ValueError(f"site {name!r} needs at least one cluster")
        self.sim = sim
        self.name = name
        self.backfill = backfill
        self.clusters = list(clusters)
        self.total_cpus = sum(c.cpus for c in clusters)
        self.busy_cpus = 0
        self._queue: Deque[Job] = deque()
        self._running: dict[int, Job] = {}
        # Observers: called with the job on each transition.
        self.on_job_dispatched: list[Callable[[Job], None]] = []
        self.on_job_started: list[Callable[[Job], None]] = []
        self.on_job_completed: list[Callable[[Job], None]] = []
        # CPU-seconds integral for Util computations.
        self._busy_integral = 0.0
        self._last_change = 0.0
        # Cumulative per-VO CPU-seconds delivered (USLA verification input).
        self.vo_cpu_seconds: dict[str, float] = {}
        # Conservation ledger: every job counted in ``jobs_dispatched``
        # is, at any instant, exactly one of completed / failed /
        # running / queued.  Oversized submissions never enter the
        # ledger — they are rejected at the door (``jobs_rejected``).
        self.jobs_dispatched = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0

    # -- public API --------------------------------------------------------
    @property
    def free_cpus(self) -> int:
        return self.total_cpus - self.busy_cpus

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def running_jobs(self) -> int:
        return len(self._running)

    def submit(self, job: Job) -> None:
        """Receive a dispatched job; start it now or queue it FIFO."""
        if job.cpus > self.total_cpus:
            job.mark_dispatched(self.sim.now, self.name)
            self._fail(job)
            return
        job.mark_dispatched(self.sim.now, self.name)
        self.jobs_dispatched += 1
        for cb in self.on_job_dispatched:
            cb(job)
        self._queue.append(job)
        self._drain()

    def utilization(self, until: Optional[float] = None) -> float:
        """Time-averaged CPU utilization over ``[0, until]`` (default: now).

        The live tail segment (busy CPUs since the last state change)
        is clamped to ``until``: asking for utilization over a window
        that ends before ``now`` must not credit busy time accrued
        after the window.  The query never mutates the integral, so
        repeated queries at one timestamp agree exactly.  Exact for any
        ``until >= _last_change``; an ``until`` inside committed
        history is answered with the full committed integral (the
        per-segment history needed to subdivide it is not kept), capped
        at 1.0 — a site can never have delivered more than its
        capacity, where the unclamped tail used to report exactly that.
        """
        until = self.sim.now if until is None else until
        if until <= 0.0:
            return 0.0
        integral = self._busy_integral
        tail = min(self.sim.now, until) - self._last_change
        if tail > 0.0:
            integral += self.busy_cpus * tail
        util = integral / (self.total_cpus * until)
        return util if util < 1.0 else 1.0

    def snapshot(self) -> dict:
        """Monitoring view of this site (what a site monitor reports)."""
        return {
            "name": self.name,
            "total_cpus": self.total_cpus,
            "free_cpus": self.free_cpus,
            "queue_length": self.queue_length,
            "running_jobs": self.running_jobs,
        }

    def snapshot_state(self) -> dict:
        """Canonical site state for snapshot digests (JSON-able).

        Captures the FIFO queue (in order), the busy ledger, the
        in-flight job set (completion timers live in the kernel heap,
        which the kernel's own capture covers), and the conservation
        counters.
        """
        return {
            "name": self.name,
            "busy_cpus": self.busy_cpus,
            "queue": [[j.jid, j.cpus] for j in self._queue],
            "running": sorted(self._running),
            "busy_integral": self._busy_integral,
            "last_change": self._last_change,
            "vo_cpu_seconds": sorted(self.vo_cpu_seconds.items()),
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_rejected": self.jobs_rejected,
        }

    # -- internals ------------------------------------------------------------
    def _advance_integral(self) -> None:
        now = self.sim.now
        self._busy_integral += self.busy_cpus * (now - self._last_change)
        self._last_change = now

    def _drain(self) -> None:
        if not self.backfill:
            while self._queue and self._queue[0].cpus <= self.free_cpus:
                job = self._queue.popleft()
                self._start(job)
            return
        # Backfill: one pass in queue order, starting whatever fits.
        # (One pass suffices: starting jobs only reduces free CPUs.)
        kept = deque()
        while self._queue:
            if self.free_cpus <= 0:
                kept.extend(self._queue)
                self._queue.clear()
                break
            job = self._queue.popleft()
            if job.cpus <= self.free_cpus:
                self._start(job)
            else:
                kept.append(job)
        self._queue.extend(kept)

    def _start(self, job: Job) -> None:
        self._advance_integral()
        now = self.sim.now
        self.busy_cpus += job.cpus
        job.mark_running(now)
        if job.dispatched_at is not None:
            # Per-VO queue-wait attribution (QTime, sliced by VO) —
            # always-on, like the other registry histograms.
            self.sim.metrics.histogram(
                "site.qwait_s." + job.vo).observe(now - job.dispatched_at)
            spans = self.sim.spans
            if spans.enabled and job.trace_ctx is not None:
                # Recorded retroactively: the wait is only known once
                # the job starts, so the span covers [dispatch, start].
                spans.record("queue", self.name, job.trace_ctx,
                             start=job.dispatched_at, end=now,
                             jid=job.jid, vo=job.vo)
        self._running[job.jid] = job
        for cb in self.on_job_started:
            cb(job)
        self.sim.schedule(job.duration_s,
                          lambda: self._complete(job, started=now))

    def _complete(self, job: Job, started: Optional[float] = None) -> None:
        if job.jid not in self._running:
            return
        if started is not None and job.started_at != started:
            # Stale timer from a preempted incarnation: the job was
            # failed and re-planned back onto this site, and the new
            # start scheduled its own completion.  Without this guard
            # the dead timer completed the new run early, truncating
            # its execution to the old deadline.
            return
        del self._running[job.jid]
        self._advance_integral()
        self.busy_cpus -= job.cpus
        job.mark_completed(self.sim.now)
        self.jobs_completed += 1
        self.vo_cpu_seconds[job.vo] = (self.vo_cpu_seconds.get(job.vo, 0.0)
                                       + job.cpu_seconds)
        for cb in self.on_job_completed:
            cb(job)
        self._drain()

    def _fail(self, job: Job) -> None:
        job.mark_failed(self.sim.now)
        self.jobs_rejected += 1
        for cb in self.on_job_completed:
            cb(job)

    def fail_running_job(self, jid: int) -> Job:
        """Fault injection: kill a running job (Euryale replanning tests)."""
        job = self._running.pop(jid, None)
        if job is None:
            raise KeyError(f"job {jid} is not running at site {self.name!r}")
        self._advance_integral()
        self.busy_cpus -= job.cpus
        job.mark_failed(self.sim.now)
        self.jobs_failed += 1
        # The job held CPUs from start to preemption; credit the partial
        # run to its VO or the busy integral no longer decomposes into
        # delivered CPU-seconds (the invariant checker's site.cpu_seconds
        # rule caught exactly this omission).
        self.vo_cpu_seconds[job.vo] = (self.vo_cpu_seconds.get(job.vo, 0.0)
                                       + job.cpu_seconds)
        for cb in self.on_job_completed:
            cb(job)
        self._drain()
        return job

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Site {self.name} cpus={self.busy_cpus}/{self.total_cpus} "
                f"queue={self.queue_length}>")
