"""Probes that measure the program from outside: spans, a CPU-time
sampler, and per-component call counters.

Nothing here imports ``repro``; every probe works through objects the
workloads hand it (a network's ``routers``/``interfaces`` lists, the
interpreter's frame stack), so a refactor beneath the public surface
cannot break the ledger.
"""

from __future__ import annotations

import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: ``repro`` module prefix -> the per-layer share metric it feeds.  The
#: longest matching prefix wins; a sample with no ``repro.*`` frame on
#: its stack (the ledger's own code, interpreter start-up) and modules
#: no entry names (``repro.params``, ``repro.analytic``) land in
#: ``other.share`` so the shares of one workload always sum to one.
LAYER_OF_MODULE = {
    "repro.noc.router": "noc.router.share",
    "repro.noc.smart": "noc.smart.share",
    "repro.noc.network": "noc.network.share",
    "repro.noc.mesh": "noc.network.share",
    "repro.noc.chiplet": "noc.network.share",
    "repro.noc.ring": "noc.network.share",
    "repro.noc.interface": "noc.interface.share",
    "repro.noc.ports": "noc.ports_vc_flit.share",
    "repro.noc.vc": "noc.ports_vc_flit.share",
    "repro.noc.flit": "noc.ports_vc_flit.share",
    "repro.noc.packet": "noc.packet.share",
    "repro.noc.topology": "noc.topology_routing.share",
    "repro.noc.routing": "noc.topology_routing.share",
    "repro.noc.stats": "noc.stats.share",
    "repro.noc.ideal": "noc.ideal.share",
    "repro.core.pra_router": "core.pra_router.share",
    "repro.core.control_network": "core.control_network.share",
    "repro.core.reservation": "core.reservation_plan.share",
    "repro.core.plan": "core.reservation_plan.share",
    "repro.core.pra_network": "core.pra_network.share",
    "repro.tile": "tile.share",
    "repro.perf": "perf.share",
    "repro.workloads": "workloads.share",
    "repro.harness": "harness.share",
    "repro.resilience": "resilience.share",
    "repro.checkpoint": "checkpoint.share",
    "repro.shard": "shard.share",
    "repro.trace": "observers.share",
    "repro.invariants": "observers.share",
    "repro.faults": "observers.share",
}
OTHER_SHARE = "other.share"
SHARE_METRICS = tuple(dict.fromkeys(LAYER_OF_MODULE.values())) + (OTHER_SHARE,)


def layer_of(module: str) -> str:
    """The share metric a sampled module name is charged to."""
    while module:
        layer = LAYER_OF_MODULE.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return OTHER_SHARE


def shares(weights: Dict[str, float]) -> Dict[str, float]:
    """Per-layer fractions of the sampled CPU time (sum to 1; all zero
    when nothing was sampled)."""
    out = dict.fromkeys(SHARE_METRICS, 0.0)
    total = sum(weights.values())
    if total > 0:
        for module, weight in weights.items():
            out[layer_of(module)] += weight / total
    return out


class Spans:
    """In-memory span log: name, start, end, the span that caused it.

    All spans of one repetition share ``rep``.  Times are seconds since
    the log was created.  A span's self time is its duration minus the
    part its child spans cover (:meth:`self_times`).
    """

    def __init__(self, rep: str):
        self.rep = rep
        self.rows: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        row = {"id": len(self.rows), "rep": self.rep, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start_s": time.perf_counter() - self._t0, "end_s": None}
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            self._stack.pop()
            row["end_s"] = time.perf_counter() - self._t0

    def add_busy(self, name: str, busy_s: float, calls: int) -> None:
        """Record ``calls`` short calls totalling ``busy_s`` as one
        aggregated child of the open span (a span per simulated cycle
        would cost more than the cycle)."""
        parent = self._stack[-1] if self._stack else None
        start = self.rows[parent]["start_s"] if parent is not None else 0.0
        self.rows.append({"id": len(self.rows), "rep": self.rep,
                          "name": name, "parent": parent, "start_s": start,
                          "end_s": start + busy_s, "calls": calls})

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(row["end_s"] - row["start_s"] for row in self.rows
                   if row["name"] == name and row["end_s"] is not None)

    def self_times(self) -> Dict[str, float]:
        covered: Dict[int, float] = defaultdict(float)
        for row in self.rows:
            if row["parent"] is not None and row["end_s"] is not None:
                covered[row["parent"]] += row["end_s"] - row["start_s"]
        out: Dict[str, float] = defaultdict(float)
        for row in self.rows:
            if row["end_s"] is not None:
                out[row["name"]] += (row["end_s"] - row["start_s"]
                                     - covered[row["id"]])
        return dict(out)


class CpuSampler:
    """``ITIMER_PROF`` sampler: charges process CPU time to the module
    of the innermost ``repro.*`` frame.

    Each tick is weighted by the CPU time since the previous tick, not
    by one: Python delivers signals between bytecodes, so ticks that
    fire during one long C call (a gzip write, a JSON decode) coalesce
    into a single handler call that must still account for all of them.
    """

    INTERVAL_S = 0.002

    def __init__(self) -> None:
        self.weights: Dict[str, float] = defaultdict(float)
        self.samples = 0
        self._last = 0.0
        self._previous = None

    def _tick(self, _signum, frame) -> None:
        now = time.process_time()
        module = ""
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name.startswith("repro."):
                module = name
                break
            frame = frame.f_back
        self.weights[module] += now - self._last
        self._last = now
        self.samples += 1

    def __enter__(self) -> "CpuSampler":
        self._last = time.process_time()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


class StepCounts:
    """Counts calls of ``routers[i].step`` and ``interfaces[i].step`` by
    shadowing the bound method with a counting closure on the instance
    (the network looks ``step`` up per call, so the shadow is seen)."""

    def __init__(self) -> None:
        self._router = [0]
        self._interface = [0]

    @property
    def router(self) -> int:
        return self._router[0]

    @property
    def interface(self) -> int:
        return self._interface[0]

    def watch(self, network) -> None:
        for cell, components in ((self._router, network.routers),
                                 (self._interface, network.interfaces)):
            for component in components:
                component.step = _counted(component.step, cell)


def _counted(inner, cell: List[int]):
    def step(now):
        cell[0] += 1
        inner(now)
    return step


def calibrate(iterations: int = 4_000_000) -> float:
    """Millions of iterations per second of a fixed integer loop (about
    0.12 s): a host-speed score recorded beside every result, so a
    reader can tell a slow host from slow code.  It is not used to scale
    any time: on this sandbox the loop and the workloads slow down
    together over minutes but not over seconds, and dividing by it
    added as much noise as it removed."""
    acc = 0
    start = time.perf_counter()
    for i in range(iterations):
        acc += i & 7
    return iterations / (time.perf_counter() - start) / 1e6


def nearest_rank(values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile, the rule ``NetworkStats`` uses."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])
