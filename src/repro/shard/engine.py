"""Sharded simulation entry point and the in-process backend.

``run_sharded`` is the one public door: it plans the cut
(:func:`repro.shard.spec.plan_shards`), falls back to a serial run when
the scenario cannot shard (non-mesh organizations, single-row meshes,
``shards=1``), and otherwise drives the shard pool round by round until
the network drains.  Both backends — the deterministic in-process pool
here and the worker-process pool in :mod:`repro.shard.process` — expose
the same three-call surface (``round`` / ``barrier`` / ``stats``) and
run under the same round loop (:func:`drive_rounds`), so every test
runs identically against either; the inline pool is the reference the
process backend is tested against.

The correctness oracle is digest equality: a sharded run's merged
statistics summary must hash to the same pinned sha256 as the serial
run of the same :class:`SyntheticSpec` (see
``tests/test_golden_determinism.py`` and
``tests/test_shard_equivalence.py``).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.noc.topology import MeshTopology
from repro.shard.domain import ShardDomain
from repro.shard.merge import merge_snapshots, merge_stats
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
    checkpoint: Optional[dict] = None
    cycles: int = 0                  # final clock (max across shards)
    cycles_skipped: int = 0
    offered: int = 0
    clocks: List[int] = field(default_factory=list)
    #: The supervisor's flight record (process backend; None inline).
    report: Optional[object] = None


class _InlinePool:
    """All shards in one process, advanced round-robin.

    Messages to the *next* shard are delivered within the same round
    (the sweep runs in ascending shard order), messages to the
    *previous* shard at the start of the following round.
    """

    def __init__(self, spec: SyntheticSpec, count: int, observers: str):
        self.domains = [ShardDomain(spec, i, count, observers=observers)
                        for i in range(count)]
        self.pending: List[list] = [[] for _ in range(count)]

    def round(self, hard_stop: Optional[int]
              ) -> Tuple[List[int], List[int], int]:
        produced = 0
        clocks: List[int] = []
        flights: List[int] = []
        for i, dom in enumerate(self.domains):
            inbox = self.pending[i]
            self.pending[i] = []
            for side, message in inbox:
                dom.receive_flush(side, message)
            dom.advance(hard_stop=hard_stop)
            message = dom.make_flush("prev")
            if message is not None:
                produced += 1
                self.pending[i - 1].append(("next", message))
            message = dom.make_flush("next")
            if message is not None:
                produced += 1
                self.pending[i + 1].append(("prev", message))
            clocks.append(dom.net.cycle)
            flights.append(dom.net.stats.in_flight)
        return clocks, flights, produced

    def barrier(self, barrier: int) -> List[dict]:
        """Each shard's snapshot at the cycle barrier."""
        from repro.checkpoint.snapshot import snapshot_network

        snapshots = []
        for dom in self.domains:
            dom.barrier_drain(barrier)
            snapshots.append(snapshot_network(dom.net, dom.traffic))
        return snapshots

    def stats(self) -> List[Tuple[dict, int, int]]:
        return [(dom.net.stats.state_dict(), dom.net.cycles_skipped,
                 dom.traffic.offered) for dom in self.domains]

    def close(self) -> None:
        pass


def merge_barrier(spec: SyntheticSpec, count: int, snapshots: List[dict],
                  barrier: int) -> dict:
    """One serial-shaped snapshot from the ``count`` shards' snapshots
    taken at the cycle barrier."""
    topo = MeshTopology(spec.width, spec.height)
    return merge_snapshots(snapshots, topo.row_domains(count), barrier)


def drive_rounds(pool, spec: SyntheticSpec, barriers: Iterable[int],
                 on_barrier: Callable[[int], None]) -> None:
    """Run rounds on ``pool`` until the network drains.

    Every shard stops at each cycle in ``barriers`` (ascending); once
    all stand there with no boundary record in transit,
    ``on_barrier(cycle)`` runs before the next round starts.
    """
    upcoming = deque(barriers)
    end_inject = spec.cycles
    deadline = spec.cycles + spec.drain
    prev_clocks: Optional[List[int]] = None
    while True:
        hard_stop = upcoming[0] if upcoming else None
        clocks, flights, produced = pool.round(hard_stop)
        total = sum(flights)
        if hard_stop is not None and produced == 0 \
                and all(c == hard_stop for c in clocks):
            on_barrier(upcoming.popleft())
            prev_clocks = None
            continue
        # Once every shard has finished injecting and the global
        # in-flight count is zero, no packet exists anywhere and no
        # boundary record can ever be produced again — the statistics
        # are final.  Heartbeat flushes may keep flowing (promises creep
        # as coverage rises), so termination must not wait for silence.
        if hard_stop is None and total == 0 \
                and all(c >= end_inject for c in clocks):
            return
        if total > 0 and all(c >= deadline for c in clocks):
            raise RuntimeError(
                f"network failed to drain: {total} packets in flight "
                f"after {spec.drain} cycles"
            )
        if produced == 0 and clocks == prev_clocks:
            raise ShardError(
                f"sharded run stalled at clocks {clocks}: no boundary "
                f"traffic and no clock progress"
            )
        prev_clocks = clocks


def _run_serial(spec: SyntheticSpec, observers: str,
                checkpoint_at: Optional[int],
                reason: Optional[str]) -> ShardResult:
    """The reference path: one network, exactly the golden scenario."""
    net, traffic = spec.build()
    if observers == "tracing":
        from repro.invariants import InvariantSuite
        from repro.trace import RingTracer

        net.attach(tracer=RingTracer(capacity=1 << 12))
        net.attach(invariants=InvariantSuite())
    checkpoint = None
    if checkpoint_at is not None:
        if not 0 <= checkpoint_at <= spec.cycles:
            raise ValueError(
                f"checkpoint_at must be within the injection phase "
                f"[0, {spec.cycles}], got {checkpoint_at}"
            )
        from repro.checkpoint.snapshot import snapshot_network

        traffic.run(checkpoint_at)
        checkpoint = snapshot_network(net, traffic)
        traffic.run(spec.cycles - checkpoint_at)
    else:
        traffic.run(spec.cycles)
    net.drain(max_cycles=spec.drain)
    summary = net.stats.summary()
    return ShardResult(
        digest=summary_digest(summary),
        summary=summary,
        shards=1,
        backend="serial",
        fallback_reason=reason,
        checkpoint=checkpoint,
        cycles=net.cycle,
        cycles_skipped=net.cycles_skipped,
        offered=traffic.offered,
        clocks=[net.cycle],
    )


def run_sharded(spec: SyntheticSpec, shards: int,
                backend: str = "inline", observers: str = "none",
                checkpoint_at: Optional[int] = None,
                policy=None, faults=None) -> ShardResult:
    """Simulate ``spec`` cut into ``shards`` row stripes.

    Serial and sharded runs of the same spec produce bit-identical
    statistics summaries (and therefore digests); ``checkpoint_at``
    additionally returns a merged snapshot taken at that cycle barrier,
    restorable by :func:`repro.checkpoint.snapshot.restore_network`.

    The process backend always runs supervised
    (:func:`repro.resilience.supervisor.run_supervised`): workers that
    die, hang, or babble are respawned from recovery-point barriers
    under ``policy`` (default: ``RetryPolicy()``), and ``faults``
    injects deterministic process failures for testing.
    """
    if backend not in ("inline", "process"):
        raise ValueError(
            f"backend must be 'inline' or 'process', got {backend!r}"
        )
    if observers not in ("none", "tracing"):
        raise ValueError(
            f"observers must be 'none' or 'tracing', got {observers!r}"
        )
    if backend == "process":
        from repro.resilience.supervisor import run_supervised

        return run_supervised(spec, shards, observers=observers,
                              checkpoint_at=checkpoint_at,
                              policy=policy, faults=faults)
    if faults is not None:
        raise ValueError(
            "process fault injection requires the process backend"
        )
    effective, reason = plan_shards(spec.params(), shards)
    if effective == 1:
        return _run_serial(spec, observers, checkpoint_at, reason)
    if checkpoint_at is not None \
            and not 0 < checkpoint_at <= spec.cycles:
        raise ValueError(
            f"checkpoint_at must be within the injection phase "
            f"(0, {spec.cycles}], got {checkpoint_at}"
        )
    pool = _InlinePool(spec, effective, observers)
    checkpoint = None

    def on_barrier(cycle: int) -> None:
        nonlocal checkpoint
        checkpoint = merge_barrier(spec, effective, pool.barrier(cycle),
                                   cycle)

    try:
        drive_rounds(pool, spec,
                     [] if checkpoint_at is None else [checkpoint_at],
                     on_barrier)
        states = pool.stats()
    finally:
        pool.close()
    stats = merge_stats([state for state, _, _ in states])
    summary = stats.summary()
    clocks = [dom.net.cycle for dom in pool.domains]
    return ShardResult(
        digest=summary_digest(summary),
        summary=summary,
        shards=effective,
        backend=backend,
        fallback_reason=reason,
        checkpoint=checkpoint,
        cycles=max(clocks),
        cycles_skipped=sum(skipped for _, skipped, _ in states),
        offered=sum(offered for _, _, offered in states),
        clocks=clocks,
    )
