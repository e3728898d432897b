"""Supervised execution of the evaluation grid: retries, quarantine,
pool rebuilds, graceful degradation, and the fault injection that
exercises them.

The evaluation grid (:mod:`repro.harness.runner`) hands :func:`supervise`
every cell its cell store could not serve.  Real worker processes die,
and the supervisor keeps the sweep alive through those deaths:

* a cell that raises is retried with exponential backoff
  (:func:`backoff`) and, after :data:`QUARANTINE_AFTER` failures,
  quarantined — left out of the result while the sweep goes on;
* a crashed worker pool is rebuilt and the outstanding cells
  resubmitted; after :data:`MAX_POOL_REBUILDS` rebuilds the remaining
  cells run serially in the parent;
* every finished cell goes back to the caller the moment it completes,
  so a crash mid-sweep keeps all work already done.

:class:`ProcessFaultPlan` / :class:`ProcFault` make cells fail on
command (kill / error), so every recovery path is deterministically
testable.  :class:`RunReport` / :class:`FailureRecord` are the
supervisor's flight record: the CLI prints every troubled one on
nonzero exit (:func:`run_reports`), the benchmark ledger reads its
counters, and :func:`last_run_report` fetches the most recent one.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Worker-pool rebuilds per sweep before the remaining cells run
#: serially in the parent.
MAX_POOL_REBUILDS = 2
#: Failures of one grid cell before it is quarantined.
QUARANTINE_AFTER = 3
#: Base of the exponential backoff, in seconds (see :func:`backoff`).
BACKOFF_BASE = 0.05


def backoff(attempt: int) -> float:
    """Seconds to sleep before recovery attempt ``attempt`` (1-based):
    ``BACKOFF_BASE * 2**(attempt - 1)``."""
    if attempt < 1:
        return 0.0
    return BACKOFF_BASE * (2 ** (attempt - 1))


# -- the flight record ------------------------------------------------------


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
    #: Poison cells abandoned after ``QUARANTINE_AFTER`` failures.
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


#: Every grid sweep's report since the last :func:`clear_reports`, in
#: order.  The CLI clears it per command and reads all of it: one
#: command may run several sweeps, and a troubled one must not be
#: hidden by a clean one after it.
_REPORTS: List[RunReport] = []


def publish(report: RunReport) -> None:
    """Record ``report`` as the latest sweep's."""
    _REPORTS.append(report)


def run_reports() -> List[RunReport]:
    """The reports published since the last :func:`clear_reports`."""
    return list(_REPORTS)


def last_run_report() -> Optional[RunReport]:
    return _REPORTS[-1] if _REPORTS else None


def clear_reports() -> None:
    """Forget every published report."""
    _REPORTS.clear()


# -- deterministic fault injection ------------------------------------------

_ACTIONS = ("kill", "error")


class ProcessFaultError(RuntimeError):
    """An injected (or parent-downgraded) process fault."""


@dataclass(frozen=True)
class ProcFault:
    """One planned grid-cell failure.

    ``"kill"`` exits the pool worker running the cell (``os._exit``,
    the OOM-killer shape; downgraded to a raised error when the cell
    runs in the parent); ``"error"`` raises :class:`ProcessFaultError`.
    """

    target: int         # cell index
    action: str         # "kill" | "error"
    #: Which attempt fails (0 = the first; ``None`` = every attempt —
    #: a poison cell).
    attempt: Optional[int] = 0

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(
                f"faults support actions {_ACTIONS}, got {self.action!r}"
            )
        if self.target < 0:
            raise ValueError(f"target must be >= 0, got {self.target}")


@dataclass(frozen=True)
class ProcessFaultPlan:
    """A reproducible description of every cell that will misbehave:
    the same plan against the same sweep reproduces the same failures
    bit for bit."""

    faults: Tuple[ProcFault, ...] = ()

    def cell_action(self, index: int, attempt: int) -> Optional[str]:
        """Action for evaluation-grid cell ``index`` on ``attempt``."""
        for fault in self.faults:
            if fault.target != index:
                continue
            if fault.attempt is None or fault.attempt == attempt:
                return fault.action
        return None


# -- the supervisor ---------------------------------------------------------


def _attempt(task: tuple) -> Any:
    """One attempt at one cell: the pool entry point (top-level so it
    pickles), also called in the parent for serial sweeps.

    A task is ``(work, index, item, attempt, faults)``: everything a
    worker needs arrives in it, so a spawn-start worker behaves like a
    fork-start one and like the in-parent serial path.  The attempt
    number keys injected-fault lookup.
    """
    work, index, item, attempt, faults = task
    action = (faults.cell_action(index, attempt) if faults is not None
              else None)
    if action == "kill":
        import multiprocessing

        # Killing the parent would take the supervisor down with it.
        if multiprocessing.parent_process() is not None:
            os._exit(13)
        raise ProcessFaultError(
            f"injected kill for cell {index} (downgraded to an "
            f"error outside a pool worker)"
        )
    if action == "error":
        raise ProcessFaultError(
            f"injected failure for cell {index} attempt {attempt}"
        )
    return work(item)


def supervise(work: Callable[[Any], Any], items: Dict[int, Any],
              done: Callable[[int, Any], None],
              label: Callable[[int], str], jobs: int,
              faults: Optional[ProcessFaultPlan] = None) -> RunReport:
    """Run ``work(items[i])`` for every cell ``i`` under supervision,
    calling ``done(i, result)`` in the parent as each one finishes.

    ``work`` must be a top-level function so it pickles for the pool;
    ``label(i)`` names cell ``i`` in failure records; ``jobs`` is the
    worker count (``1`` runs every cell in the parent).  The
    :class:`RunReport` is published (see :func:`last_run_report`) and
    returned.  The module constants are read here, at call time.
    """
    report = RunReport()
    failures: Dict[int, int] = {}
    queue = deque((index, 0) for index in items)

    def task(index: int, attempt: int) -> tuple:
        return (work, index, items[index], attempt, faults)

    def fail(index: int, exc: Exception) -> None:
        """Count one failure of ``index``; requeue it unless that
        quarantines it."""
        count = failures[index] = failures.get(index, 0) + 1
        record = FailureRecord(scope="cell", target=label(index),
                               kind="error", attempts=count,
                               detail=repr(exc))
        report.record_failure(record)
        if count >= QUARANTINE_AFTER:
            report.quarantined.append(record)
            return
        report.retries += 1
        time.sleep(backoff(count))
        queue.append((index, count))

    def run_pool(workers: int) -> bool:
        """Submit the whole queue to one pool; True when it crashed."""
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        # ProcessPoolExecutor rather than multiprocessing.Pool: a worker
        # dying mid-cell surfaces as BrokenProcessPool here, where Pool
        # simply hangs waiting for the lost result.
        broken = False
        futures = {}
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                while queue:
                    index, attempt = queue.popleft()
                    futures[pool.submit(_attempt, task(index, attempt))] = (
                        index, attempt)
                for future in as_completed(futures):
                    index, attempt = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # Collateral damage, not this cell's fault: no
                        # failure count.  The attempt still advances so
                        # an attempt-keyed injected kill does not
                        # re-fire forever on resubmission.
                        broken = True
                        queue.append((index, attempt + 1))
                        continue
                    except Exception as exc:
                        fail(index, exc)
                        continue
                    done(index, result)
        except BrokenProcessPool:  # pragma: no cover - raised at exit
            broken = True
        return broken

    workers = min(jobs, len(queue))
    while workers > 1 and queue:
        if not run_pool(workers):
            continue
        report.pool_rebuilds += 1
        report.record_failure(FailureRecord(
            scope="pool", target=f"{workers}-worker grid pool",
            kind="died", attempts=report.pool_rebuilds,
            detail="worker pool crashed; rebuilding and "
                   "resubmitting outstanding cells",
        ))
        if report.pool_rebuilds > MAX_POOL_REBUILDS:
            report.degraded = (
                "serial completion in the parent process after "
                f"{report.pool_rebuilds} worker-pool crashes"
            )
            break
        time.sleep(backoff(report.pool_rebuilds))
    # The serial sweep, or what a degraded one has left.  In-parent
    # execution still honors the fault plan (kills downgraded to
    # errors), so poison cells quarantine identically either way.
    while queue:
        index, attempt = queue.popleft()
        try:
            result = _attempt(task(index, attempt))
        except Exception as exc:
            fail(index, exc)
            continue
        done(index, result)
    publish(report)
    return report
