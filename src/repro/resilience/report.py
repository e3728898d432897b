"""Structured outcomes of a supervised evaluation-grid sweep.

A :class:`RunReport` is the grid supervisor's flight record: every
failure it saw, every recovery it performed, every cell it gave up on.
The CLI prints it on nonzero exit, the benchmark ledger reads its
counters, and ``publish`` mirrors the counters onto the module-wide
``grid_stats`` object so they appear in ``grid_stats.summary()``
alongside the grid-cache counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class FailureRecord:
    """One observed failure, diagnosed and attributed."""

    #: What failed: ``"cell"`` (one evaluation-grid cell) or ``"pool"``
    #: (a whole grid worker pool).
    scope: str
    #: Human-readable identity: ``"Web Search/mesh seed 1"``.
    target: str
    #: Diagnosis: ``"error"`` (the cell raised) or ``"died"`` (a pool
    #: worker exited mid-cell).
    kind: str
    #: Failures of this target so far (1-based at first failure).
    attempts: int
    detail: str = ""

    def render(self) -> str:
        text = f"{self.scope} {self.target}: {self.kind} " \
               f"(attempt {self.attempts})"
        if self.detail:
            first = self.detail.strip().splitlines()[0]
            text += f" — {first}"
        return text


@dataclass
class RunReport:
    """Everything the grid supervisor did to keep one sweep alive."""

    #: Recovery attempts (each one retried work that had failed).
    retries: int = 0
    #: Evaluation-grid worker pools rebuilt after a crash.
    pool_rebuilds: int = 0
    #: Every failure observed, in order (recovered ones included).
    failures: List[FailureRecord] = field(default_factory=list)
    #: Poison cells abandoned after ``quarantine_after`` failures.
    quarantined: List[FailureRecord] = field(default_factory=list)
    #: Set when rebuilds exhausted and the sweep finished serially in
    #: the parent process.
    degraded: Optional[str] = None

    @property
    def clean(self) -> bool:
        """True when the run needed no recovery at all."""
        return not self.failures and not self.quarantined \
            and self.degraded is None

    @property
    def completed(self) -> bool:
        """True when the run produced a full result (possibly degraded,
        but with nothing quarantined)."""
        return not self.quarantined

    def record_failure(self, record: FailureRecord) -> None:
        self.failures.append(record)

    def render(self) -> str:
        lines = ["grid run report:"]
        lines.append(
            f"  failures observed:   {len(self.failures)}"
            f"  (retries {self.retries}, "
            f"pool rebuilds {self.pool_rebuilds})"
        )
        if self.degraded:
            lines.append(f"  degraded:            {self.degraded}")
        if self.quarantined:
            lines.append(f"  quarantined ({len(self.quarantined)}):")
            for record in self.quarantined:
                lines.append(f"    - {record.render()}")
        for record in self.failures:
            lines.append(f"  failure: {record.render()}")
        if self.clean:
            lines.append("  no failures; no recovery needed")
        return "\n".join(lines)


#: The most recent grid sweep's report; the CLI reads this to print
#: diagnostics on nonzero exit.
_LAST_REPORT: Optional[RunReport] = None


def publish(report: RunReport) -> None:
    """Record ``report`` as the latest and mirror its counters onto the
    process-wide ``grid_stats`` object (so retry/rebuild/quarantine
    totals show up in ``grid_stats.summary()``)."""
    global _LAST_REPORT
    _LAST_REPORT = report
    # Imported lazily: repro.harness.runner imports this module.
    from repro.harness.runner import grid_stats

    grid_stats.worker_retries += report.retries
    grid_stats.pool_rebuilds += report.pool_rebuilds
    grid_stats.cells_quarantined += len(report.quarantined)


def last_run_report() -> Optional[RunReport]:
    return _LAST_REPORT


def clear_last_report() -> None:
    """Forget the latest report (tests use this for isolation)."""
    global _LAST_REPORT
    _LAST_REPORT = None
