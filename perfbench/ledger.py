"""Per-layer host-time ledger built from timing wrappers.

The wrappers live here, in the benchmark, and are installed around the
public entry points of each layer for the duration of one traced run;
no program file changes.  Every wrapped call is a *frame*: its
inclusive time is charged to its own key, and its self time (inclusive
minus the inclusive time of frames nested inside it) to its layer.

Three kinds of frame cover the run:

* ``Simulator.run`` is the root frame, so every host second of the run
  lands in exactly one layer's self time;
* every heap callback and periodic function is wrapped when it is
  scheduled and charged to the layer of the module that defined it
  (transport deliveries, site completions, sync and monitor ticks,
  ...); the kernel's own plumbing stays in the root frame, and the
  kernel calls that layer code makes (scheduling, process creation,
  timeouts, races, event triggers) are kernel frames;
* every process generator is wrapped when it is created and each of
  its steps is charged to its owner (``client:``/``broker:`` processes
  to the client, ``handler:`` processes to the decision point).

Named methods of the engine, state view, selectors, sync protocol,
transport, sites, workloads and span recorder are wrapped on top, so
their cost is split out of whichever frame calls them.  The wrappers
only read the clock and count; they never change arguments, return
values or the order of events.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = ["Ledger", "layer_of_module", "SELF_KEYS"]

#: Module prefix -> layer, most specific first.  Container service
#: runs inside the decision point's handler steps, so the two are one
#: layer; the site monitor is the other path that refreshes DP views.
_MODULE_LAYERS = (
    ("repro.sim", "kernel"),
    ("repro.core.client", "client"),
    ("repro.workloads", "workload"),
    ("repro.net.container", "dp"),
    ("repro.net", "net"),
    ("repro.core.decision_point", "dp"),
    ("repro.core.broker", "dp"),
    ("repro.core.engine", "engine"),
    ("repro.usla", "engine"),
    ("repro.core.state", "state"),
    ("repro.core.selectors", "selector"),
    ("repro.core.sync", "sync"),
    ("repro.core.monitor", "sync"),
    ("repro.grid", "site"),
    ("repro.obs", "obs"),
)

#: The layers and the metric that reports each one's self time.  Code
#: outside every layer (layer ``other``) is left to
#: ``trace.unattributed_s``.
SELF_KEYS = {
    "kernel": "kernel.self_s",
    "client": "client.self_s",
    "workload": "workload.self_s",
    "net": "net.self_s",
    "dp": "dp.handler_self_s",
    "engine": "engine.self_s",
    "state": "state.self_s",
    "selector": "selector.self_s",
    "sync": "sync.self_s",
    "site": "site.self_s",
    "obs": "obs.self_s",
}


def layer_of_module(module: Optional[str]) -> str:
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def _module_of(fn: Any) -> Optional[str]:
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", None)
    return module if module is not None else type(fn).__module__


def _process_owner(name: str, gen: Any) -> tuple[str, str]:
    """``(layer, key)`` for a process, from its name or its code."""
    kind = name.split(":", 1)[0]
    if kind in ("client", "broker"):
        return "client", f"proc:{kind}"
    if kind == "handler":
        return "dp", f"proc:{name}"
    frame = getattr(gen, "gi_frame", None)
    module = frame.f_globals.get("__name__") if frame is not None else None
    return layer_of_module(module), f"proc:{kind}"


class _TimedGen:
    """Generator stand-in that times each step under its owner's layer."""

    __slots__ = ("gen", "__name__", "layer", "key", "ledger", "born",
                 "sent_query")

    def __init__(self, ledger: "Ledger", gen: Any, name: str, born: float):
        self.gen = gen
        self.__name__ = getattr(gen, "__name__", name)
        self.layer, self.key = _process_owner(name, gen)
        self.ledger = ledger
        self.born = born
        self.sent_query = False

    def _step(self, method: Callable, arg: Any) -> Any:
        ledger = self.ledger
        stack = ledger._stack
        clock = time.perf_counter
        prev = ledger.current
        ledger.current = self
        stack.append(0.0)
        t0 = clock()
        try:
            return method(arg)
        finally:
            dt = clock() - t0
            ledger.self_s[self.layer] += dt - stack.pop()
            stack[-1] += dt
            ledger.calls[self.key] += 1
            ledger.current = prev

    def send(self, value: Any) -> Any:
        return self._step(self.gen.send, value)

    def throw(self, exc: BaseException) -> Any:
        return self._step(self.gen.throw, exc)

    def close(self) -> None:
        self.gen.close()


class Ledger:
    """Self/inclusive host time per layer, plus sim-time samples."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Child-time accumulators of the open frames; the bottom entry
        #: collects the inclusive time of top-level frames.
        self._stack: list[float] = [0.0]
        self.current: Optional[_TimedGen] = None
        #: Simulated one-way WAN latencies drawn by the latency model.
        self.wan_s: list[float] = []
        #: Simulated delay from a brokering process's start to its query
        #: RPC (client stack overhead plus extra auth round trips).
        self.client_overhead_s: list[float] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self._stack[:] = [0.0]
        self.wan_s.clear()
        self.client_overhead_s.clear()

    # -- frames ------------------------------------------------------------
    def timed(self, layer: str, key: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def frame(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                incl_s[key] += dt
                calls[key] += 1

        frame.__qualname__ = getattr(fn, "__qualname__", key)
        frame.__module__ = _module_of(fn)
        return frame

    # -- installation --------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Install every wrapper; restore the originals on exit."""
        saved: list[tuple[type, str, Any]] = []

        def patch(cls: type, attr: str, make: Callable[[Any], Any]) -> None:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, make(original))

        def method(cls: type, attr: str, layer: str) -> None:
            key = f"{cls.__name__}.{attr}"
            patch(cls, attr, lambda fn: self.timed(layer, key, fn))

        try:
            self._install(patch, method)
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)

    def _install(self, patch, method) -> None:
        from repro.core.broker import DIGruberDeployment
        from repro.core.engine import GruberEngine
        from repro.core.selectors import SiteSelector
        from repro.core.state import GridStateView
        from repro.core.sync import SyncProtocol
        from repro.grid.builder import GridBuilder
        from repro.grid.site import Site
        from repro.net.latency import PairwiseWanLatency
        from repro.net.transport import Network
        from repro.obs.spans import SpanRecorder
        from repro.sim.kernel import Event, Simulator
        from repro.workloads.generator import HostWorkload, WorkloadGenerator

        layer_cache: dict[Optional[str], str] = {}

        def schedule_at(original):
            timed = self.timed
            original = timed("kernel", "Simulator.schedule_at", original)

            def wrapper(sim, time_, fn):
                # Kernel plumbing needs no frame of its own: the root
                # frame is the kernel's.  The transport recognises its
                # pooled expiry objects by type, so those stay unwrapped
                # too (and are charged to the kernel).
                if type(fn).__name__ != "_RpcExpiry":
                    module = _module_of(fn)
                    layer = layer_cache.get(module)
                    if layer is None:
                        layer = layer_cache[module] = layer_of_module(module)
                    if layer != "kernel":
                        fn = timed(layer, f"callback:{layer}", fn)
                return original(sim, time_, fn)
            return wrapper

        def every(original):
            def wrapper(sim, interval, fn, *args, **kwargs):
                layer = layer_of_module(_module_of(fn))
                return original(sim, interval,
                                self.timed(layer, f"periodic:{layer}", fn),
                                *args, **kwargs)
            return wrapper

        def process(original):
            original = self.timed("kernel", "Simulator.process", original)

            def wrapper(sim, gen, name=""):
                name = name or getattr(gen, "__name__", "process")
                return original(sim, _TimedGen(self, gen, name, sim.now),
                                name=name)
            return wrapper

        def rpc(original):
            timed = self.timed("net", "Network.rpc", original)

            def wrapper(net, src, dst, op, *args, **kwargs):
                proc = self.current
                if (proc is not None and not proc.sent_query
                        and proc.key == "proc:broker"
                        and op in ("get_state", "broker_job")):
                    proc.sent_query = True
                    self.client_overhead_s.append(net.sim.now - proc.born)
                return timed(net, src, dst, op, *args, **kwargs)
            return wrapper

        def latency_sample(original):
            timed = self.timed("net", "Latency.sample", original)
            samples = self.wan_s

            def wrapper(*args, **kwargs):
                value = timed(*args, **kwargs)
                samples.append(value)
                return value
            return wrapper

        method(Simulator, "run", "kernel")
        patch(Simulator, "schedule_at", schedule_at)
        patch(Simulator, "every", every)
        # Kernel calls made from layer code (timeouts, races, event
        # triggers) are kernel work, as a profiler would count them.
        for attr in ("timeout", "any_of", "all_of", "event"):
            method(Simulator, attr, "kernel")
        for attr in ("succeed", "fail"):
            method(Event, attr, "kernel")
        patch(Simulator, "process", process)
        method(HostWorkload, "job_at", "workload")
        patch(Network, "rpc", rpc)
        method(Network, "send_oneway", "net")
        patch(PairwiseWanLatency, "sample", latency_sample)
        for attr in ("availabilities", "record_local_dispatch"):
            method(GruberEngine, attr, "engine")
        method(GruberEngine, "merge_remote_records", "sync")
        for attr in ("expire", "apply_record", "apply_records",
                     "refresh_site", "refresh_all", "free_map",
                     "free_subset", "pending_records", "records_since"):
            method(GridStateView, attr, "state")
        todo = [SiteSelector]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for attr in ("select", "select_any"):
                if attr in cls.__dict__ and not getattr(
                        cls.__dict__[attr], "__isabstractmethod__", False):
                    patch(cls, attr, lambda fn, a=attr: self.timed(
                        "selector", f"SiteSelector.{a}", fn))
        for attr in ("tick", "on_sync"):
            method(SyncProtocol, attr, "sync")
        method(Site, "submit", "site")
        for attr in ("start_trace", "start_span", "record", "finish"):
            method(SpanRecorder, attr, "obs")
        method(GridBuilder, "build", "setup.grid")
        method(DIGruberDeployment, "__init__", "setup.deployment")
        method(WorkloadGenerator, "host_workload", "setup.workload")
