"""Supervised execution of the evaluation grid: retries, quarantine,
pool rebuilds and graceful degradation.

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

:class:`RunReport` / :class:`FailureRecord` are the supervisor's flight
record: the CLI prints every troubled one on nonzero exit
(:func:`run_reports`), the benchmark ledger reads its counters, and
:func:`last_run_report` fetches the most recent one.

There is no fault-injection hook here: ``tests/test_resilience.py``
provokes each recovery path by patching the work function the grid
hands in (``repro.harness.runner._simulate_cell``), the way the shard
tests replace a shard worker's main loop.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

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


# -- the supervisor ---------------------------------------------------------


def supervise(work: Callable[[Any], Any], items: Dict[int, Any],
              done: Callable[[int, Any], None],
              label: Callable[[int], str], jobs: int) -> RunReport:
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
    queue = deque(items)

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
        queue.append(index)

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
                    index = queue.popleft()
                    futures[pool.submit(work, items[index])] = index
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # Collateral damage, not this cell's fault: no
                        # failure count.
                        broken = True
                        queue.append(index)
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
    # The serial sweep, or what a degraded one has left.
    while queue:
        index = queue.popleft()
        try:
            result = work(items[index])
        except Exception as exc:
            fail(index, exc)
            continue
        done(index, result)
    publish(report)
    return report
