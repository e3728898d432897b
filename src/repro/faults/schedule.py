"""Fault schedules: what goes wrong, where, and when.

A :class:`FaultSchedule` is a frozen value object, so the same schedule
replayed against the same network and traffic seed reproduces the same
run bit for bit.  Probabilistic faults (control drops, ACK loss, plan
expiry) do not consume a shared random stream — each decision hashes its
site coordinates (site id, node, packet id, cycle) with the schedule
seed, which makes the outcome independent of the order in which sites
happen to be queried.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import FrozenSet, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    # Deferred: repro.noc imports repro.faults (the network holds the
    # injector), so a module-level import here would be circular.
    from repro.noc.topology import Direction

_MASK = (1 << 64) - 1

#: Site ids mixed into the per-decision hash so different fault classes
#: at the same (node, pid, cycle) draw independent values.
SITE_CONTROL_INJECT = 1
SITE_CONTROL_SEGMENT = 2
SITE_ACK = 3
SITE_EXPIRY = 4


def mix01(seed: int, *values: int) -> float:
    """Deterministic hash of ``(seed, *values)`` to a float in [0, 1).

    splitmix64-style finalizer; stable across processes and insensitive
    to ``PYTHONHASHSEED``, so fault decisions replay exactly.
    """
    x = (seed ^ 0x9E3779B97F4A7C15) & _MASK
    for v in values:
        x = (x ^ ((v & _MASK) * 0xBF58476D1CE4E5B9)) & _MASK
        x = (x * 0x94D049BB133111EB + 0x9E3779B97F4A7C15) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x / 2.0 ** 64


@dataclass(frozen=True)
class StallWindow:
    """A router's local arbiter is frozen for ``[start, start+duration)``.

    Only the *local* arbiter stalls: the PRA arbiter keeps executing
    committed reservations (the paper's Figure 4 splits the two), so a
    stall can never strand flits mid-plan in a latch.
    """

    node: int
    start: int
    duration: int

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("stall duration must be positive")

    @property
    def end(self) -> int:
        return self.start + self.duration

    def covers(self, cycle: int) -> bool:
        return self.start <= cycle < self.end


@dataclass(frozen=True)
class LinkStall:
    """One output link refuses to transmit for ``[start, start+duration)``."""

    node: int
    direction: "Direction"
    start: int
    duration: int

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("stall duration must be positive")

    @property
    def end(self) -> int:
        return self.start + self.duration

    def covers(self, cycle: int) -> bool:
        return self.start <= cycle < self.end


@dataclass(frozen=True)
class SegmentBlackout:
    """Control-network multi-drop media at ``nodes`` drop every control
    packet during ``[start, start+duration)``.  Data links are
    unaffected — the blackout models the dedicated control wires dying,
    which must degrade PRA to baseline allocation, nothing worse."""

    nodes: FrozenSet[int]
    start: int
    duration: int

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("blackout duration must be positive")

    @property
    def end(self) -> int:
        return self.start + self.duration

    def covers(self, node: int, cycle: int) -> bool:
        return node in self.nodes and self.start <= cycle < self.end


@dataclass(frozen=True)
class FaultSchedule:
    """A reproducible description of everything that will go wrong."""

    seed: int = 0
    #: Probability a control packet is dropped at its injection latch.
    control_drop_prob: float = 0.0
    #: Probability a control packet is dropped at a segment boundary.
    segment_drop_prob: float = 0.0
    #: Probability the ACK converting a landing is suppressed (the
    #: control packet sees the conversion fail and drops there).
    ack_loss_prob: float = 0.0
    #: Probability a committed plan expires (is cancelled) before its
    #: first timeslot — models corrupted/expired reservation state.
    plan_expiry_prob: float = 0.0
    router_stalls: Tuple[StallWindow, ...] = ()
    link_stalls: Tuple[LinkStall, ...] = ()
    blackouts: Tuple[SegmentBlackout, ...] = ()

    def __post_init__(self):
        for name in ("control_drop_prob", "segment_drop_prob",
                     "ack_loss_prob", "plan_expiry_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")

    @property
    def is_empty(self) -> bool:
        return (
            self.control_drop_prob == 0.0
            and self.segment_drop_prob == 0.0
            and self.ack_loss_prob == 0.0
            and self.plan_expiry_prob == 0.0
            and not self.router_stalls
            and not self.link_stalls
            and not self.blackouts
        )

    @classmethod
    def random(
        cls,
        seed: int,
        num_nodes: int,
        horizon: int,
        intensity: float = 1.0,
    ) -> "FaultSchedule":
        """A reproducible mixed-fault schedule for chaos sweeps.

        ``horizon`` is the length (in cycles) of the run being stressed;
        stall and blackout windows land inside it.  ``intensity`` scales
        both probabilities and window counts (1.0 is the default sweep
        level; 0 disables everything).
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if horizon < 10:
            raise ValueError("horizon too short for a fault schedule")
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        from repro.noc.topology import CARDINALS

        rng = _random.Random(seed)

        def clamp(p: float) -> float:
            return min(1.0, max(0.0, p))

        def window_start() -> int:
            return rng.randrange(max(1, horizon // 10),
                                 max(2, (horizon * 4) // 5))

        n_stalls = max(1, round(num_nodes * intensity / 8)) if intensity else 0
        router_stalls = tuple(
            StallWindow(node=rng.randrange(num_nodes), start=window_start(),
                        duration=rng.randrange(8, 40))
            for _ in range(n_stalls)
        )
        link_stalls = tuple(
            LinkStall(node=rng.randrange(num_nodes),
                      direction=rng.choice(CARDINALS),
                      start=window_start(),
                      duration=rng.randrange(8, 40))
            for _ in range(n_stalls)
        )
        blackouts = ()
        if intensity:
            nodes = frozenset(
                rng.randrange(num_nodes)
                for _ in range(max(2, num_nodes // 8))
            )
            blackouts = (
                SegmentBlackout(nodes=nodes, start=window_start(),
                                duration=rng.randrange(16, 60)),
            )
        return cls(
            seed=seed,
            control_drop_prob=clamp(0.03 * intensity),
            segment_drop_prob=clamp(0.03 * intensity),
            ack_loss_prob=clamp(0.05 * intensity),
            plan_expiry_prob=clamp(0.10 * intensity),
            router_stalls=router_stalls,
            link_stalls=link_stalls,
            blackouts=blackouts,
        )
