"""Process-level fault injection: kill, hang, or corrupt a worker on
command.

The chaos harness (:mod:`repro.faults`) stresses the *simulated*
network; this module stresses the *simulator* — worker processes die,
hang, and babble exactly where a :class:`ProcessFaultPlan` says, so
every recovery path in :mod:`repro.resilience.supervisor` and the
supervised evaluation grid is deterministically testable.  Like
:class:`repro.faults.FaultSchedule`, a plan is a frozen value object:
the same plan against the same scenario reproduces the same failures
bit for bit.

Fault scopes:

* ``"shard"`` — fires inside a shard worker when its clock reaches
  ``at`` (gated on the worker's ``incarnation`` so a respawned worker
  does not re-fire a fault meant for its predecessor);
* ``"cell"`` — fires inside an evaluation-grid worker running cell
  ``target`` on attempt ``attempt`` (``None`` = every attempt, the
  poison-cell shape).

Actions: ``"kill"`` (``os._exit`` — models the OOM killer; downgraded
to an exception when the cell runs in the parent process), ``"hang"``
(sleep forever — models a livelocked worker; shard scope only),
``"garbage"`` (reply with a malformed message; shard scope only), and
``"error"`` (raise :class:`ProcessFaultError`; cell scope only).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: Exit code of a fault-injected worker kill (recognizable in reports).
KILL_EXIT_CODE = 113

_SHARD_ACTIONS = ("kill", "hang", "garbage")
_CELL_ACTIONS = ("kill", "error")


class ProcessFaultError(RuntimeError):
    """An injected (or parent-downgraded) process fault."""


@dataclass(frozen=True)
class ProcFault:
    """One planned process failure."""

    scope: str          # "shard" | "cell"
    target: int         # shard index or cell index
    action: str         # see module docstring
    #: Shard scope: fire once the worker's clock reaches this cycle.
    at: int = 0
    #: Shard scope: which worker incarnation the fault applies to
    #: (0 = the first spawn; ``None`` = every respawn too).
    incarnation: Optional[int] = 0
    #: Cell scope: which attempt fails (0 = the first; ``None`` = every
    #: attempt — a poison cell).
    attempt: Optional[int] = 0

    def __post_init__(self):
        if self.scope not in ("shard", "cell"):
            raise ValueError(f"scope must be 'shard' or 'cell', "
                             f"got {self.scope!r}")
        allowed = _SHARD_ACTIONS if self.scope == "shard" else _CELL_ACTIONS
        if self.action not in allowed:
            raise ValueError(
                f"{self.scope} faults support actions {allowed}, "
                f"got {self.action!r}"
            )
        if self.target < 0:
            raise ValueError(f"target must be >= 0, got {self.target}")
        if self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")


@dataclass(frozen=True)
class ProcessFaultPlan:
    """A reproducible description of every process that will misbehave."""

    faults: Tuple[ProcFault, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def cell_action(self, index: int, attempt: int) -> Optional[str]:
        """Action for evaluation-grid cell ``index`` on ``attempt``."""
        for fault in self.faults:
            if fault.scope != "cell" or fault.target != index:
                continue
            if fault.attempt is None or fault.attempt == attempt:
                return fault.action
        return None


class ShardFaultDriver:
    """Worker-side executor of a plan's shard-scope faults.

    Lives inside one worker process; tracks which faults already fired
    so each fires at most once per incarnation.
    """

    def __init__(self, plan: Optional[ProcessFaultPlan], shard: int,
                 incarnation: int):
        self._armed = []
        if plan is not None:
            for fid, fault in enumerate(plan.faults):
                if fault.scope != "shard" or fault.target != shard:
                    continue
                if fault.incarnation is not None \
                        and fault.incarnation != incarnation:
                    continue
                self._armed.append((fid, fault))
        self._fired = set()

    def poll(self, cycle: int) -> Optional[str]:
        """The action due at ``cycle``, or None; fires each fault once."""
        for fid, fault in self._armed:
            if fid in self._fired or cycle < fault.at:
                continue
            self._fired.add(fid)
            return fault.action
        return None

    @staticmethod
    def execute_kill() -> None:  # pragma: no cover - exits the process
        """Die the way the OOM killer kills: no cleanup, no goodbye."""
        os._exit(KILL_EXIT_CODE)

    @staticmethod
    def execute_hang() -> None:  # pragma: no cover - parent terminates us
        """Go silent forever; the supervisor's heartbeat must notice."""
        while True:
            time.sleep(3600)
