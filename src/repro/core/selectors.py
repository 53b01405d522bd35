"""Site selectors: task-assignment policies.

"Site selectors are tools that communicate with the GRUBER engine and
provide answers to the question: which is the best site at which I can
run this job?  Site selectors can implement various task assignment
policies, such as round robin, least used, or least recently used."

Selectors run *client-side* in DI-GRUBER: the client fetches the
availability map from its decision point and applies its policy
locally (paper §3.7: the tester "executes site selector logic to
determine the site to which the job should be dispatched").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from typing import Optional

import numpy as np

from repro.core.state import FreeSnapshot

__all__ = [
    "SiteSelector",
    "RandomSelector",
    "RoundRobinSelector",
    "LeastUsedSelector",
    "LeastRecentlyUsedSelector",
    "least_bad_site",
    "make_selector",
]


class SiteSelector(ABC):
    """Maps an availability view to a site choice for one job.

    Each policy scans the free-CPU column of a
    :class:`~repro.core.state.FreeSnapshot`; any other ``{site: free}``
    mapping is adapted at entry.  Ties resolve in column order.
    """

    def select(self, availabilities: Mapping[str, float],
               cpus: int) -> Optional[str]:
        """Pick a site with >= ``cpus`` estimated free CPUs.

        Returns None when no site fits — callers fall back to the
        least-bad option (:func:`least_bad_site`) or to random placement.
        """
        return self._select(FreeSnapshot.of(availabilities), cpus)

    @abstractmethod
    def _select(self, snap: FreeSnapshot, cpus: int) -> Optional[str]:
        """The policy over the snapshot's column."""

    @staticmethod
    def _fitting(snap: FreeSnapshot, cpus: int) -> np.ndarray:
        """Column positions of the sites with >= ``cpus`` free."""
        return np.flatnonzero(snap.free >= cpus)


def least_bad_site(availabilities: Mapping[str, float],
                   rng: np.random.Generator) -> str:
    """Nothing fits: a site with the most free CPUs, ties (within 1e-9,
    e.g. a fully USLA-filtered view at 0) drawn uniformly from ``rng``
    so the fallback stream spreads out."""
    snap = FreeSnapshot.of(availabilities)
    free = snap.free
    top = np.flatnonzero(free >= free.max() - 1e-9)
    return snap.names[top[int(rng.integers(0, len(top)))]]


class RandomSelector(SiteSelector):
    """Uniform random among fitting sites (also the timeout fallback)."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def _select(self, snap: FreeSnapshot, cpus: int) -> Optional[str]:
        fitting = self._fitting(snap, cpus)
        if not len(fitting):
            return None
        return snap.names[fitting[int(self.rng.integers(0, len(fitting)))]]

    def select_any(self, sites: list[str]) -> str:
        """Unconditioned random pick (the USLA-blind timeout fallback)."""
        if not sites:
            raise ValueError("no sites to select from")
        return sites[int(self.rng.integers(0, len(sites)))]


class RoundRobinSelector(SiteSelector):
    """Cycle through fitting sites in stable name order."""

    def __init__(self) -> None:
        self._cursor = 0

    def _select(self, snap: FreeSnapshot, cpus: int) -> Optional[str]:
        names = snap.names
        fitting = sorted(names[i] for i in self._fitting(snap, cpus))
        if not fitting:
            return None
        choice = fitting[self._cursor % len(fitting)]
        self._cursor += 1
        return choice


class LeastUsedSelector(SiteSelector):
    """Most estimated free CPUs wins, randomized within ``spread``.

    ``spread`` picks uniformly among fitting sites whose estimated free
    capacity is at least ``spread * best`` — at 1.0 this is strict
    argmax with random tie-breaking; below 1.0 it decorrelates the many
    independent selectors of a distributed deployment, which would
    otherwise herd onto the same top-ranked site between sync rounds.
    This is the selector the scalability experiments use.
    """

    def __init__(self, rng: np.random.Generator, spread: float = 1.0):
        if not (0.0 < spread <= 1.0):
            raise ValueError(f"spread must be in (0, 1], got {spread}")
        self.rng = rng
        self.spread = spread

    def _select(self, snap: FreeSnapshot, cpus: int) -> Optional[str]:
        fitting = self._fitting(snap, cpus)
        if not len(fitting):
            return None
        free = snap.free[fitting]
        top = fitting[free >= self.spread * free.max()]
        if len(top) == 1:
            return snap.names[top[0]]
        return snap.names[top[int(self.rng.integers(0, len(top)))]]


class LeastRecentlyUsedSelector(SiteSelector):
    """Prefer the fitting site this selector has not chosen for longest."""

    def __init__(self) -> None:
        self._last_used: dict[str, int] = {}
        self._tick = 0

    def _select(self, snap: FreeSnapshot, cpus: int) -> Optional[str]:
        names = snap.names
        fitting = [names[i] for i in self._fitting(snap, cpus)]
        if not fitting:
            return None
        choice = min(fitting,
                     key=lambda s: (self._last_used.get(s, -1), s))
        self._tick += 1
        self._last_used[choice] = self._tick
        return choice


_SELECTORS = {
    "random": RandomSelector,
    "round_robin": RoundRobinSelector,
    "least_used": LeastUsedSelector,
    "lru": LeastRecentlyUsedSelector,
}


def make_selector(name: str, rng: Optional[np.random.Generator] = None,
                  spread: Optional[float] = None) -> SiteSelector:
    """Factory by policy name; rng required for stochastic policies.

    ``spread`` configures :class:`LeastUsedSelector` and is ignored by
    the other policies.
    """
    try:
        cls = _SELECTORS[name]
    except KeyError:
        raise ValueError(f"unknown selector {name!r}; "
                         f"expected one of {sorted(_SELECTORS)}") from None
    if cls is LeastUsedSelector:
        if rng is None:
            raise ValueError(f"selector {name!r} needs an rng")
        return cls(rng, spread=spread if spread is not None else 1.0)
    if cls is RandomSelector:
        if rng is None:
            raise ValueError(f"selector {name!r} needs an rng")
        return cls(rng)
    return cls()
