"""Retry/backoff/heartbeat knobs for supervised execution.

A :class:`RetryPolicy` is a frozen value object, so the same policy
drives a run identically wherever it is built — in the parent, in a
respawned pool, or in a test.  Pass one as ``policy=`` to
:func:`repro.harness.runner.evaluation_grid` or
:func:`repro.shard.run_sharded` to harden a long sweep; without one
both run under the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How hard supervised execution tries before giving ground."""

    #: Recovery attempts without forward progress before degrading:
    #: shard-pool respawns per run segment, grid pool rebuilds per sweep.
    max_retries: int = 2
    #: Seconds a shard worker may stay silent mid-command before the
    #: supervisor declares it hung and recycles the pool.
    heartbeat_timeout: float = 60.0
    #: Failures of a single evaluation-grid cell before it is recorded
    #: as a poison cell and the sweep moves on without it.
    quarantine_after: int = 3
    #: Base of the exponential backoff: attempt ``k`` (1-based) sleeps
    #: ``backoff_base * 2**(k-1)`` seconds.  Zero disables sleeping
    #: (tests use this to keep recovery paths fast).
    backoff_base: float = 0.05
    #: Cycles between automatic cycle-barrier recovery points in a
    #: sharded run; ``None`` picks a quarter of the injection window.
    recovery_interval: Optional[int] = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, "
                f"got {self.heartbeat_timeout}"
            )
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, "
                f"got {self.quarantine_after}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.recovery_interval is not None \
                and self.recovery_interval < 1:
            raise ValueError(
                f"recovery_interval must be positive (or None for "
                f"auto), got {self.recovery_interval}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before recovery attempt ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return self.backoff_base * (2 ** (attempt - 1))

    def barriers(self, cycles: int) -> list:
        """Automatic recovery-point barriers for an injection window of
        ``cycles`` cycles (strictly inside the window, ascending)."""
        interval = self.recovery_interval
        if interval is None:
            interval = max(1, cycles // 4)
        return list(range(interval, cycles, interval))
