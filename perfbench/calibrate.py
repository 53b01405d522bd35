"""A fixed pure-Python workload that gauges the machine's current speed.

On a shared host the same simulation run takes anywhere from 1x to 2x
its quiet-machine time, in phases that last minutes, so raw wall times
of separate invocations are not comparable.  This workload touches no
program code, so a change to the simulator cannot move it; only the
machine can.  Its mix (heap pushes and pops, dict and list writes,
tuple and small-object allocation, generator resumes) mirrors the
simulator's hot path.  The cyclic garbage collector is paused while it
runs, so its time does not depend on how many objects the calling
process holds.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

__all__ = ["calibrate", "CAL_REF_S"]

#: Iterations of the fixed workload; ``CAL_REF_S`` was measured at it.
N = 10_000

#: Calibration time of the reference machine (a 2-vCPU Xeon VM at
#: 2.1 GHz in a typical phase).  Host times are reported as
#: ``wall * CAL_REF_S / mean(calibrate() samples)``: seconds on the
#: reference machine.
CAL_REF_S = 0.027


def calibrate() -> float:
    """Wall seconds to run the fixed workload once."""
    rnd = random.Random(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(rnd)
    finally:
        if enabled:
            gc.enable()


def _run(rnd: random.Random) -> float:
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    ring: list = [None] * 4096

    def process():
        total = 0
        while True:
            total += yield total

    gen = process()
    next(gen)
    for i in range(N):
        key = rnd.randrange(1 << 20)
        heapq.heappush(heap, (key, i, {"k": key}))
        if len(heap) > 2_000:
            heapq.heappop(heap)
        table[key & 0xFFF] = [i, key * 0.5]
        ring[i & 4095] = (i, str(i))
        gen.send(i & 7)
    return time.perf_counter() - t0
