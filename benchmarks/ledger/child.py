"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition, so set-up time, peak
RSS, packet pools and packet ids are all per-run figures.  The last
line printed is the repetition's JSON record.

Modes: ``plain`` (what end-to-end metrics are taken from), ``traced``
(plain plus the CPU sampler and finer spans), ``count`` (router and NI
``step`` calls counted), ``tracer`` / ``invariants`` (the same run with
that observer attached), ``reference`` (the workload's serial or
uninterrupted reference).
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator

from probe import CpuSampler, Spans, StepCounts

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


class Ctx:
    """What a workload function sees: its seed and scale, the span log,
    and the hooks each child mode turns on."""

    def __init__(self, workload: str, mode: str, seed: int, scale: float,
                 t_spawn: float, workdir: str):
        self.seed = seed
        self.scale = scale
        self.mode = mode
        self.traced = mode == "traced"
        self.workdir = workdir
        self.spans = Spans(f"{workload}/{mode}/{os.getpid()}")
        self.sampler = CpuSampler() if self.traced else None
        self.host: Dict[str, float] = {}
        #: Per-layer values this repetition could read or time.
        self.layers: Dict[str, float] = {}
        #: Layer metric -> why it could not be read.
        self.omitted: Dict[str, str] = {}
        self._t_spawn = t_spawn
        #: CPU of worker processes reaped inside the timed region.
        self.children_cpu_s = 0.0

    def n(self, pinned: int) -> int:
        """A pinned cycle count under this run's scale (1.0 except in
        the self-test)."""
        return max(1, int(pinned * self.scale))

    def span(self, name: str):
        return self.spans.span(name)

    def layer(self, name: str, read: Callable[[], float]) -> None:
        """Record one free-to-read layer metric; an attribute the
        program no longer has omits that metric, not the run."""
        try:
            self.layers[name] = read()
        except (AttributeError, KeyError, ZeroDivisionError) as exc:
            self.omitted[name] = f"{type(exc).__name__}: {exc}"

    @contextmanager
    def sampling(self) -> Iterator[None]:
        if self.sampler is None:
            yield
            return
        with self.sampler:
            yield

    @contextmanager
    def timed(self, sample: bool = True) -> Iterator[None]:
        """The region end-to-end host metrics cover: first cycle or call
        to last, after set-up and before the checks."""
        self.host["setup_s"] = time.monotonic() - self._t_spawn
        with self.span("timed"):
            cpu0 = _cpu_s()
            start = time.perf_counter()
            if sample:
                with self.sampling():
                    yield
            else:
                yield
            self.host["wall_s"] = time.perf_counter() - start
            cpu1 = _cpu_s()
        self.children_cpu_s = cpu1[1] - cpu0[1]
        self.host["cpu_s"] = sum(cpu1) - sum(cpu0)

    def observe(self, net):
        """Attach this mode's observer to ``net`` (None in most modes)."""
        if self.mode == "tracer":
            from repro.trace import RingTracer

            tracer = RingTracer()
            net.attach(tracer=tracer)
            return tracer
        if self.mode == "invariants":
            from repro.invariants import InvariantSuite

            suite = InvariantSuite()
            net.attach(invariants=suite)
            return suite
        return None

    def count_steps(self, *nets):
        """One counter over the routers and NIs of ``nets`` (count mode
        only)."""
        if self.mode != "count":
            return None
        counts = StepCounts()
        for net in nets:
            counts.watch(net)
        return counts


def _cpu_s() -> tuple:
    """(own, reaped children's) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime)


def run_child(workload: str, mode: str, seed: int, scale: float,
              t_spawn: float) -> dict:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"ledger: no program to measure at {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    # Stores and snapshots go beside this file, not in the system's
    # temporary directory: the benchmark contract confines every read
    # and write to the checkout.  Nothing outlives the repetition.
    workdir = tempfile.mkdtemp(prefix=f".work-{workload}-", dir=HERE)
    try:
        ctx = Ctx(workload, mode, seed, scale, t_spawn, workdir)
        result = (spec.reference if mode == "reference" else spec.run)(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ctx.host["peak_rss_mb"] = peak_kb / 1024.0
    result.update(workload=workload, mode=mode, seed=seed, host=ctx.host,
                  layers=ctx.layers, omitted=ctx.omitted,
                  spans=ctx.spans.rows, span_self_s=ctx.spans.self_times())
    if ctx.sampler is not None:
        result["sampler"] = {"samples": ctx.sampler.samples,
                             "weights": dict(ctx.sampler.weights)}
    return result


if __name__ == "__main__":
    args = json.loads(sys.argv[1])
    print(json.dumps(run_child(**args)))
