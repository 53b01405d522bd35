"""Metric arithmetic shared by the worker and the self-tests.

Everything here works on plain numbers and numpy arrays, so the rules
(sample-count floor for percentiles, +inf for queries never answered,
fallback counting, results digest) are testable on hand-built data.
"""

from __future__ import annotations

import math
import zlib
from typing import Optional, Sequence

import numpy as np

__all__ = ["MIN_BEYOND", "nearest_rank", "response_samples", "query_counts",
           "conservation_errors", "results_digest", "ratio"]

#: A percentile is reported only when at least this many samples lie
#: strictly above it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float],
                 q: float) -> Optional[tuple[float, int]]:
    """The nearest-rank ``q``-th percentile and the sample count.

    Nearest rank (not interpolation) so that +inf samples stay +inf
    instead of turning into NaN.  Returns ``None`` when fewer than
    ``MIN_BEYOND`` samples lie beyond the percentile.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = len(arr)
    if n == 0 or np.isnan(arr).any():
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return float(arr[rank - 1]), n


def response_samples(response_s: np.ndarray,
                     open_s: Sequence[float]) -> np.ndarray:
    """One response-time sample per issued query.

    ``response_s`` is the recorded response time per finished query,
    NaN where the client gave up without a reply (abandoned, or an RPC
    error); those count as +inf.  ``open_s`` holds, per query still
    open at the horizon (in flight, in the timeout grace wait, or
    awaiting the dispatch-report ack), the time it has been open so
    far: a lower bound on its response time, so percentiles over the
    samples are lower bounds too.
    """
    out = np.asarray(response_s, dtype=np.float64).copy()
    out[np.isnan(out)] = np.inf
    return np.concatenate([out, np.asarray(open_s, dtype=np.float64)])


def query_counts(decided: np.ndarray, handled: np.ndarray) -> dict:
    """Outcome counts over issued queries (one query per issued job).

    ``decided``: the client placed the job (brokered or fallback);
    ``handled``: a decision point's answer arrived within the timeout.
    """
    decided = np.asarray(decided, dtype=bool)
    handled = np.asarray(handled, dtype=bool)
    if (handled & ~decided).any():
        raise ValueError("a handled query must also be decided")
    issued = int(len(decided))
    brokered = int(handled.sum())
    fallback = int((decided & ~handled).sum())
    return {"issued": issued, "brokered": brokered, "fallback": fallback,
            "in_flight": issued - brokered - fallback}


def conservation_errors(counts: dict, n_handled: int, n_fallback: int,
                        n_clients: int) -> list[str]:
    """Disagreements between per-job outcomes and the client counters.

    Brokered + fallback + in flight must equal the queries issued, the
    per-job tallies must match the clients' own counters, and at most
    one query per host can be in flight (the closed loop).
    """
    errors = []
    if (counts["brokered"] + counts["fallback"] + counts["in_flight"]
            != counts["issued"]):
        errors.append(f"outcomes do not sum to issued: {counts}")
    if counts["brokered"] != n_handled:
        errors.append(f"brokered {counts['brokered']} != client counter "
                      f"{n_handled}")
    if counts["fallback"] != n_fallback:
        errors.append(f"fallback {counts['fallback']} != client counter "
                      f"{n_fallback}")
    if not 0 <= counts["in_flight"] <= n_clients:
        errors.append(f"in-flight {counts['in_flight']} outside "
                      f"[0, {n_clients}]")
    return errors


def _canon(col: np.ndarray) -> bytes:
    arr = np.asarray(col, dtype=np.float64).copy()
    arr[np.isnan(arr)] = -1.0
    return arr.tobytes()


def results_digest(jobs: dict, queries: dict) -> str:
    """CRC32 over the simulated results a speed-only change must keep.

    Per job (in job-id order): site, handled flag, dispatch and start
    times; per query (in record order): send time and response time.
    """
    order = np.argsort(np.asarray(jobs["jid"]), kind="stable")
    crc = zlib.crc32(np.asarray(jobs["jid"])[order].astype(np.int64).tobytes())
    sites = "\n".join(str(s) for s in np.asarray(jobs["site"])[order])
    crc = zlib.crc32(sites.encode(), crc)
    crc = zlib.crc32(np.asarray(jobs["handled"])[order].astype(np.uint8)
                     .tobytes(), crc)
    crc = zlib.crc32(_canon(np.asarray(jobs["dispatched_at"])[order]), crc)
    crc = zlib.crc32(_canon(np.asarray(jobs["started_at"])[order]), crc)
    crc = zlib.crc32(_canon(queries["sent_at"]), crc)
    crc = zlib.crc32(_canon(queries["response_s"]), crc)
    return f"{crc:08x}"


def ratio(num: float, den: float) -> Optional[float]:
    """``num / den``, or ``None`` when the base is zero."""
    return num / den if den else None
