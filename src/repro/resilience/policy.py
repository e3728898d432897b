"""Retry/backoff/quarantine knobs for the supervised evaluation grid.

A :class:`RetryPolicy` is a frozen value object, so the same policy
drives a sweep identically wherever it is built — in the parent, in a
rebuilt pool, or in a test.  Pass one as ``policy=`` to
:func:`repro.harness.runner.evaluation_grid` to harden a long sweep;
without one it runs under the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a supervised sweep tries before giving ground."""

    #: Worker-pool rebuilds per sweep before the remaining cells run
    #: serially in the parent.
    max_retries: int = 2
    #: Failures of a single evaluation-grid cell before it is recorded
    #: as a poison cell and the sweep moves on without it.
    quarantine_after: int = 3
    #: Base of the exponential backoff: attempt ``k`` (1-based) sleeps
    #: ``backoff_base * 2**(k-1)`` seconds.  Zero disables sleeping
    #: (tests use this to keep recovery paths fast).
    backoff_base: float = 0.05

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
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

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before recovery attempt ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return self.backoff_base * (2 ** (attempt - 1))
