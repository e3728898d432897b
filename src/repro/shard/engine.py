"""Sharded simulation entry point and the in-process backend.

``run_sharded`` is the one public door: it plans the cut
(:func:`repro.shard.spec.plan_shards`), falls back to a serial run when
the scenario cannot shard (non-mesh organizations, single-row meshes,
``shards=1``), and otherwise drives a shard pool until the network
drains.  Both backends — the deterministic in-process pool here and
the worker-process pool in :mod:`repro.shard.process` — expose the same
surface (``run`` / ``stats`` / ``close`` / ``kill``) and run under the
same driver (:func:`drive`), which owns every decision a run takes:
drained, failed to drain, stalled.  The backend only chooses the pool
class; every test runs identically against either, and the inline
pool is the reference the process backend is tested against.

The correctness oracle is digest equality: a sharded run's merged
statistics summary must hash to the same pinned sha256 as the serial
run of the same :class:`SyntheticSpec` (see
``tests/test_golden_determinism.py`` and
``tests/test_shard_equivalence.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

from repro.shard.domain import ShardDomain, flush_target
from repro.shard.merge import merge_stats
from repro.shard.process import ProcessPool
from repro.shard.spec import ShardError, SyntheticSpec, plan_shards


def summary_digest(summary: dict) -> str:
    """sha256 of a stats summary, exactly as the golden tests hash it."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True, default=repr).encode()
    ).hexdigest()


@dataclass
class ShardResult:
    """Outcome of a (possibly degenerate) sharded run."""

    digest: str
    summary: dict
    shards: int                      # effective shard count
    backend: str                     # "serial", "inline", or "process"
    fallback_reason: Optional[str] = None
    #: The serial run's final clock: its drain stops on the cycle of
    #: the last delivery, wherever each shard's own clock ended up.
    cycles: int = 0
    cycles_skipped: int = 0
    offered: int = 0
    #: Where each shard's clock stood when the run was declared drained
    #: (on the process backend that depends on timing).
    clocks: List[int] = field(default_factory=list)
    #: Always None: a sharded run is never supervised (a failed worker
    #: raises).  Kept because the benchmark ledger reads it.
    report: Optional[object] = None


#: ``done(clocks, flights, settled)``: the driver's verdict on a pool's
#: latest per-shard clocks and in-flight counts; ``settled`` says every
#: shard is blocked with no flush in transit.  True ends ``pool.run``.
Done = Callable[[List[int], List[int], bool], bool]


class _InlinePool:
    """All shards in one process, resumed in turn.

    A flush reaches its neighbor the moment it is emitted, so a sweep
    in which no shard moved means none ever will.
    """

    def __init__(self, spec: SyntheticSpec, count: int):
        self.domains = [ShardDomain(spec, i, count) for i in range(count)]

    def _deliver(self, index: int, side: str, message: dict) -> None:
        target, arrives_from = flush_target(index, side)
        self.domains[target].receive_flush(arrives_from, message)

    def run(self, done: Done) -> None:
        emits = [partial(self._deliver, i) for i in range(len(self.domains))]
        while True:
            moved = False
            for dom, emit in zip(self.domains, emits):
                if dom.advance(emit):
                    moved = True
            if done([dom.net.cycle for dom in self.domains],
                    [dom.net.stats.in_flight for dom in self.domains],
                    not moved):
                return

    def stats(self) -> List[dict]:
        return [dom.final_state() for dom in self.domains]

    def close(self) -> None:
        """Nothing to stop: the shards live in this process."""

    kill = close


def drive(pool, spec: SyntheticSpec) -> None:
    """Run ``pool`` until the network drains."""
    end_inject = spec.cycles
    deadline = spec.cycles + spec.drain

    def done(clocks: List[int], flights: List[int], settled: bool) -> bool:
        total = sum(flights)
        # Once every shard has finished injecting and the global
        # in-flight count is zero, no packet exists anywhere and no
        # boundary record can ever be produced again — the statistics
        # are final.  A count reported before its shard ran on is safe:
        # past injection it can only over-count.  Heartbeat flushes may
        # keep flowing (promises creep as coverage rises), so
        # termination must not wait for silence.
        if total == 0 and all(c >= end_inject for c in clocks):
            return True
        if total > 0 and all(c >= deadline for c in clocks):
            raise RuntimeError(
                f"network failed to drain: {total} packets in flight "
                f"after {spec.drain} cycles"
            )
        if settled:
            raise ShardError(
                f"sharded run stalled at clocks {clocks}: every shard "
                f"blocked and no boundary traffic in transit"
            )
        return False

    pool.run(done)


def sharded_result(spec: SyntheticSpec, states: List[dict],
                   **fields) -> ShardResult:
    """Fold the pool's per-shard ``stats()`` into one result."""
    summary = merge_stats([state["stats"] for state in states]).summary()
    return ShardResult(
        digest=summary_digest(summary),
        summary=summary,
        cycles=max(spec.cycles,
                   1 + max(state["last_delivery"] for state in states)),
        cycles_skipped=sum(state["skipped"] for state in states),
        offered=sum(state["offered"] for state in states),
        clocks=[state["clock"] for state in states],
        **fields,
    )


def _run_serial(spec: SyntheticSpec,
                reason: Optional[str]) -> ShardResult:
    """The reference path: one network, exactly the golden scenario."""
    net, traffic = spec.build()
    traffic.run(spec.cycles)
    net.drain(max_cycles=spec.drain)
    summary = net.stats.summary()
    return ShardResult(
        digest=summary_digest(summary),
        summary=summary,
        shards=1,
        backend="serial",
        fallback_reason=reason,
        cycles=net.cycle,
        cycles_skipped=net.cycles_skipped,
        offered=traffic.offered,
        clocks=[net.cycle],
    )


def run_sharded(spec: SyntheticSpec, shards: int,
                backend: str = "inline") -> ShardResult:
    """Simulate ``spec`` cut into ``shards`` row stripes.

    Serial and sharded runs of the same spec produce bit-identical
    statistics summaries (and therefore digests).

    ``backend`` picks the pool: ``"inline"`` (every shard in this
    process) or ``"process"`` (one worker process per shard).  A worker
    that dies, hangs or babbles raises a
    :class:`~repro.shard.spec.WorkerFailure` after the pool is killed.
    """
    pools = {"inline": _InlinePool, "process": ProcessPool}
    if backend not in pools:
        raise ValueError(
            f"backend must be 'inline' or 'process', got {backend!r}"
        )
    effective, reason = plan_shards(spec.params(), shards)
    if effective == 1:
        return _run_serial(spec, reason)
    pool = pools[backend](spec, effective)
    try:
        drive(pool, spec)
        states = pool.stats()
    except BaseException:
        pool.kill()
        raise
    pool.close()
    return sharded_result(spec, states, shards=effective,
                          backend=backend, fallback_reason=reason)
