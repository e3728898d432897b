"""Scenario specification and shard planning for parallel simulation.

A :class:`SyntheticSpec` pins everything a worker process needs to
rebuild its copy of the simulation — network parameters, traffic
pattern, seed, and run length — as a small picklable value.  The same
spec drives the serial reference run, every shard of a sharded run, and
the golden-digest tests, so "serial and sharded are bit-identical" is a
statement about one shared scenario object rather than two hand-kept
copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.noc.network import build_network
from repro.params import NocKind, NocParams
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern


class ShardError(RuntimeError):
    """A sharded run hit state it cannot represent or merge."""


class WorkerFailure(ShardError):
    """A shard worker process failed, with a structured diagnosis.

    ``kind`` is one of ``"died"`` (process gone; ``exitcode`` says how),
    ``"hung"`` (alive but silent past the heartbeat timeout),
    ``"garbage"`` (malformed reply on the pipe), or ``"crashed"``
    (the worker itself reported an exception before exiting).
    """

    def __init__(self, shard: int, kind: str, detail: str = "",
                 exitcode: Optional[int] = None,
                 pid: Optional[int] = None):
        message = f"shard {shard} worker {kind}"
        if exitcode is not None:
            message += f" (exit code {exitcode})"
        if pid is not None:
            message += f" (pid {pid})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.shard = shard
        self.kind = kind
        self.detail = detail
        self.exitcode = exitcode
        self.pid = pid


@dataclass(frozen=True)
class SyntheticSpec:
    """A self-contained synthetic-traffic scenario.

    The defaults replicate the golden network scenario of
    ``tests/test_golden_determinism.py`` (8x8 mesh, uniform random at
    rate 0.02, seed 7, 800 injection cycles plus a full drain).
    """

    kind: NocKind = NocKind.MESH
    width: int = 8
    height: int = 8
    #: Topology spec string (see :mod:`repro.noc.topology`).
    topology: str = "mesh"
    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM
    rate: float = 0.02
    seed: int = 7
    cycles: int = 800
    drain: int = 20000

    def params(self) -> NocParams:
        return NocParams(kind=self.kind, mesh_width=self.width,
                         mesh_height=self.height, topology=self.topology)

    def build(self):
        """Fresh ``(network, traffic)`` pair for this scenario."""
        net = build_network(self.params())
        traffic = SyntheticTraffic(net, self.pattern, self.rate,
                                   seed=self.seed)
        return net, traffic


#: The pinned golden scenario (see tests/test_golden_determinism.py).
GOLDEN_SPEC = SyntheticSpec()


def plan_shards(params: NocParams,
                requested: int) -> Tuple[int, Optional[str]]:
    """Decide how many shards a scenario actually supports.

    Returns ``(effective, reason)``; ``reason`` is a human-readable
    explanation whenever ``effective`` differs from ``requested``.  Only
    the baseline mesh is sharded for real: SMART, Mesh+PRA, and the
    ideal network all make same-cycle reads across arbitrary distances
    (bypass paths, control broadcasts, zero-load delivery), which a
    row-stripe cut cannot serve conservatively.
    """
    if requested < 1:
        raise ValueError(f"shard count must be positive, got {requested}")
    if requested == 1:
        return 1, None
    if params.kind is not NocKind.MESH:
        return 1, serial_fallback_reason(
            "kind", params.kind.value,
            f"{params.kind.value} makes non-local same-cycle "
            f"reads; only the baseline mesh shards")
    topo_kind = params.topology.split(":", 1)[0]
    if topo_kind == "ring":
        return 1, serial_fallback_reason(
            "topology", "ring",
            "ring wrap links join the first and last row stripe, so no "
            "row cut is conservative; ring runs are serial")
    if topo_kind == "chiplet":
        return 1, serial_fallback_reason(
            "topology", "chiplet",
            "row stripes would cut chiplet sub-meshes and split "
            "gateway/interposer state across workers; chiplet runs "
            "are serial")
    height = params.mesh_height
    if requested > height:
        return height, serial_fallback_reason(
            "clamp", str(height),
            f"clamped to {height}: one row stripe per shard "
            f"is the finest cut of a height-{height} mesh")
    return requested, None


def serial_fallback_reason(cause: str, value: str, detail: str) -> str:
    """Structured fallback reason: ``[cause=value] detail``.

    Every degraded plan (non-mesh kind, ring/chiplet topology, height
    clamp) routes through this one formatter, so drivers and tests can
    parse the cause tag without matching free-form prose.
    """
    return f"[{cause}={value}] {detail}"
